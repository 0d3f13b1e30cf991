// End-to-end integration tests of the full pipeline at test scale.
#include "driver/experiment.h"

#include <gtest/gtest.h>

#include <string>

namespace dasched {
namespace {

ExperimentConfig tiny(const std::string& app) {
  ExperimentConfig cfg;
  cfg.app = app;
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  return cfg;
}

TEST(Experiment, DefaultSchemeRunsToCompletion) {
  const ExperimentResult r = run_experiment(tiny("sar"));
  EXPECT_GT(r.exec_time, 0);
  EXPECT_GT(r.energy_j.value(), 0.0);
  EXPECT_GT(r.events, 0);
  EXPECT_EQ(r.policy, PolicyKind::kNone);
  EXPECT_FALSE(r.scheme);
}

TEST(Experiment, EnergyScalesWithExecutionTime) {
  const ExperimentResult r = run_experiment(tiny("sar"));
  // Sanity: total energy between all-standby and all-active bounds for the
  // 8-disk system.
  const double seconds = to_sec(r.exec_time);
  EXPECT_GT(r.energy_j.value(), 8 * 7.2 * seconds * 0.9);
  EXPECT_LT(r.energy_j.value(), 8 * 44.8 * seconds * 1.1);
}

TEST(Experiment, SchemeRunPrefetches) {
  ExperimentConfig cfg = tiny("sar");
  cfg.use_scheme = true;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.scheme);
  EXPECT_GT(r.runtime.prefetches, 0);
  EXPECT_GT(r.runtime.buffer_hits, 0);
  EXPECT_GT(r.sched.mean_advance_slots, 0.0);
}

TEST(Experiment, DeterministicAcrossRuns) {
  const ExperimentResult a = run_experiment(tiny("madbench2"));
  const ExperimentResult b = run_experiment(tiny("madbench2"));
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_DOUBLE_EQ(a.energy_j.value(), b.energy_j.value());
  EXPECT_EQ(a.events, b.events);
}

class PolicyIntegration : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyIntegration, CompletesUnderEveryPolicy) {
  ExperimentConfig cfg = tiny("madbench2");
  cfg.policy = GetParam();
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.exec_time, 0);
  EXPECT_GT(r.energy_j.value(), 0.0);
}

TEST_P(PolicyIntegration, CompletesWithSchemeToo) {
  ExperimentConfig cfg = tiny("madbench2");
  cfg.policy = GetParam();
  cfg.use_scheme = true;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.exec_time, 0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyIntegration,
                         ::testing::Values(PolicyKind::kNone,
                                           PolicyKind::kSimple,
                                           PolicyKind::kPrediction,
                                           PolicyKind::kHistory,
                                           PolicyKind::kStaggered));

TEST(Experiment, MultiSpeedPolicyUsesReducedSpeeds) {
  ExperimentConfig cfg = tiny("madbench2");
  cfg.policy = PolicyKind::kHistory;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.storage.rpm_changes, 0);
  EXPECT_EQ(r.storage.spin_downs, 0);
}

TEST(Experiment, SpinDownPolicyNeverChangesSpeed) {
  ExperimentConfig cfg = tiny("madbench2");
  cfg.policy = PolicyKind::kSimple;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.storage.rpm_changes, 0);
}

TEST(Experiment, HistorySavesEnergyOnPhasedWorkload) {
  const ExperimentResult base = run_experiment(tiny("madbench2"));
  ExperimentConfig cfg = tiny("madbench2");
  cfg.policy = PolicyKind::kHistory;
  const ExperimentResult hist = run_experiment(cfg);
  EXPECT_LT(normalized_energy(hist, base), 1.0);
}

TEST(Experiment, NodesSweepChangesSignatureWidth) {
  ExperimentConfig cfg = tiny("sar");
  cfg.storage.num_io_nodes = 2;
  const ExperimentResult two = run_experiment(cfg);
  cfg.storage.num_io_nodes = 16;
  const ExperimentResult sixteen = run_experiment(cfg);
  EXPECT_GT(two.exec_time, sixteen.exec_time);  // fewer disks = slower
}

TEST(Experiment, HelpersComputeRatios) {
  ExperimentResult base;
  base.energy_j = Joules{200.0};
  base.exec_time = sec(100.0);
  ExperimentResult r;
  r.energy_j = Joules{150.0};
  r.exec_time = sec(110.0);
  EXPECT_DOUBLE_EQ(normalized_energy(r, base), 0.75);
  EXPECT_NEAR(degradation(r, base), 0.10, 1e-12);
}

TEST(Experiment, UnknownAppThrows) {
  ExperimentConfig cfg = tiny("not-an-app");
  EXPECT_THROW((void)run_experiment(cfg), std::out_of_range);
}

/// The field `validate_experiment_topology(cfg)` rejects, or "" if it
/// accepts the config.
std::string rejected_field(const ExperimentConfig& cfg) {
  try {
    validate_experiment_topology(cfg);
  } catch (const ConfigError& e) {
    return e.field();
  }
  return "";
}

TEST(ShardTopologyValidation, RejectsDegenerateTopologies) {
  const struct {
    void (*mutate)(ExperimentConfig&);
    const char* field;
  } cases[] = {
      {[](ExperimentConfig& c) { c.scale.num_processes = 0; },
       "scale.num_processes"},
      {[](ExperimentConfig& c) { c.storage.num_io_nodes = 0; },
       "storage.num_io_nodes"},
      // The cache must hold at least one stripe-sized block.
      {[](ExperimentConfig& c) { c.storage.node.cache_capacity = mib(0); },
       "storage.node.cache_capacity"},
      {[](ExperimentConfig& c) { c.storage.node.cache_capacity = mib(-1); },
       "storage.node.cache_capacity"},
      {[](ExperimentConfig& c) {
         c.storage.node.cache_capacity = c.storage.stripe_size - 1;
       },
       "storage.node.cache_capacity"},
      {[](ExperimentConfig& c) { c.runtime.buffer_capacity = mib(-1); },
       "runtime.buffer_capacity"},
      {[](ExperimentConfig& c) { c.compile.sched.delta = -1; },
       "compile.sched.delta"},
      {[](ExperimentConfig& c) { c.compile.sched.theta = -3; },
       "compile.sched.theta"},
  };
  for (const auto& c : cases) {
    ExperimentConfig cfg = tiny("sar");
    c.mutate(cfg);
    EXPECT_EQ(rejected_field(cfg), c.field) << "case " << (&c - cases);
  }
}

TEST(ShardTopologyValidation, AcceptsTopologiesBeyondThePaperCap) {
  // >8 nodes and >32 clients are first-class configurations; the validator
  // only rejects genuinely inconsistent combinations.
  ExperimentConfig cfg = tiny("sar");
  cfg.scale.num_processes = 512;
  cfg.storage.num_io_nodes = 64;
  EXPECT_NO_THROW(validate_experiment_topology(cfg));
}

TEST(ShardTopologyValidation, SmallestLegalCacheAndDeltaRun) {
  ExperimentConfig cfg = tiny("sar");
  cfg.storage.node.cache_capacity = cfg.storage.stripe_size;
  cfg.compile.sched.delta = 0;
  cfg.use_scheme = true;
  EXPECT_EQ(rejected_field(cfg), "");
  EXPECT_GT(run_experiment(cfg).events, 0);
}

TEST(ShardTopologyValidation, RejectsInconsistentShardCounts) {
  // The serial engine is the only engine; every non-zero count is invalid.
  for (int shards : {-1, 1, 2, 99}) {
    ExperimentConfig cfg = tiny("sar");
    cfg.shards = shards;
    EXPECT_EQ(rejected_field(cfg), "shards") << "shards=" << shards;
  }
  ExperimentConfig cfg = tiny("sar");
  cfg.shards = 1;
  try {
    (void)run_experiment(cfg);
    FAIL() << "run_experiment accepted shards=1";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "shards");
  }
}

}  // namespace
}  // namespace dasched
