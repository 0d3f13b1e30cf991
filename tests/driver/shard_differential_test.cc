// Differential bit-identity suite for the sharded engine (DESIGN.md §14).
//
// `shards=1` is the serial reference: the sharded engine with one worker
// executes every lane program in exactly the (time, stream, local_seq)
// order the protocol defines, with no thread interleaving at all.  Each
// cell below re-runs the identical experiment at shards in {2, 3, 4} and
// compares every floating-point output via bit_cast (one ulp of drift
// fails) and every counter exactly.  Any scheduling nondeterminism — a
// mailbox drained out of order, a window boundary that depends on worker
// count, a tie broken by wall-clock arrival — shows up here as a hard
// failure, not a flaky statistic.
//
// The grid deliberately crosses the policies with real state machines
// (history, staggered) and both scheme settings, and adds a topology far
// beyond the paper's 8-node/32-client evaluation cap to exercise the
// many-lanes-per-worker path.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "check/audit.h"
#include "driver/experiment.h"
#include "telemetry/analytics.h"

namespace dasched {
namespace {

ExperimentConfig make_cell(const char* app, PolicyKind policy, bool scheme,
                           int shards) {
  ExperimentConfig cfg;
  cfg.app = app;
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  cfg.policy = policy;
  cfg.use_scheme = scheme;
  cfg.shards = shards;
  return cfg;
}

void expect_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << std::hexfloat << a << " vs " << b
      << std::defaultfloat;
}

void expect_identical(const ExperimentResult& ref, const ExperimentResult& r,
                      int shards) {
  SCOPED_TRACE(testing::Message() << "shards=" << shards);
  EXPECT_EQ(r.exec_time.count(), ref.exec_time.count());
  expect_bits(r.energy_j.value(), ref.energy_j.value(), "energy_j");
  EXPECT_EQ(r.events, ref.events);
  expect_bits(r.storage.cache_hit_rate, ref.storage.cache_hit_rate,
              "hit_rate");
  EXPECT_EQ(r.storage.disk_requests, ref.storage.disk_requests);
  EXPECT_EQ(r.storage.spin_downs, ref.storage.spin_downs);
  EXPECT_EQ(r.storage.spin_ups, ref.storage.spin_ups);
  EXPECT_EQ(r.storage.rpm_changes, ref.storage.rpm_changes);
  EXPECT_EQ(r.storage.idle_periods.count(), ref.storage.idle_periods.count());
  EXPECT_EQ(r.runtime.prefetches, ref.runtime.prefetches);
  EXPECT_EQ(r.runtime.buffer_hits, ref.runtime.buffer_hits);
  EXPECT_EQ(r.runtime.direct_reads, ref.runtime.direct_reads);
  EXPECT_EQ(r.sched.scheduled, ref.sched.scheduled);
  EXPECT_EQ(r.sched.forced, ref.sched.forced);
  EXPECT_EQ(r.sched.theta_fallbacks, ref.sched.theta_fallbacks);
  expect_bits(r.sched.mean_advance_slots, ref.sched.mean_advance_slots,
              "mean_advance");
}

void run_differential(const char* app, PolicyKind policy, bool scheme) {
  const ExperimentResult ref =
      run_experiment(make_cell(app, policy, scheme, 1));
  for (int shards : {2, 3, 4}) {
    const ExperimentResult r =
        run_experiment(make_cell(app, policy, scheme, shards));
    expect_identical(ref, r, shards);
  }
}

TEST(ShardDifferential, SarAcrossPoliciesAndSchemes) {
  for (PolicyKind policy : {PolicyKind::kNone, PolicyKind::kSimple,
                            PolicyKind::kHistory, PolicyKind::kStaggered}) {
    for (bool scheme : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "policy=" << to_string(policy) << " scheme=" << scheme);
      run_differential("sar", policy, scheme);
    }
  }
}

TEST(ShardDifferential, Madbench2AcrossPoliciesAndSchemes) {
  for (PolicyKind policy : {PolicyKind::kNone, PolicyKind::kSimple,
                            PolicyKind::kHistory, PolicyKind::kStaggered}) {
    for (bool scheme : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "policy=" << to_string(policy) << " scheme=" << scheme);
      run_differential("madbench2", policy, scheme);
    }
  }
}

TEST(ShardDifferential, LargeTopologyBeyondThePaperCap) {
  // 64 I/O nodes x 128 clients: the paper's evaluation never exceeds
  // 8 x 32, so this is the sharding target topology.  4 workers then own
  // 16 node lanes each.
  ExperimentConfig ref_cfg = make_cell("sar", PolicyKind::kHistory, true, 1);
  ref_cfg.scale.num_processes = 128;
  ref_cfg.scale.factor = 0.02;
  ref_cfg.storage.num_io_nodes = 64;
  const ExperimentResult ref = run_experiment(ref_cfg);

  ExperimentConfig cfg = ref_cfg;
  cfg.shards = 4;
  const ExperimentResult r = run_experiment(cfg);
  expect_identical(ref, r, 4);
}

TEST(ShardDifferential, ShardedAuditRunsCleanWithMergedLanes) {
  ExperimentConfig cfg = make_cell("sar", PolicyKind::kHistory, true, 4);
  SimAuditor auditor;
  const ExperimentResult r = run_experiment(cfg, &auditor);
  EXPECT_TRUE(r.audited);
  EXPECT_EQ(r.audit_violations, 0);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  // Evaluations flow in from every lane auditor; a zero here would mean the
  // merge dropped the per-lane checks on the floor.
  EXPECT_GT(auditor.evaluations(), 0);
}

TEST(ShardDifferential, ShardedTelemetryMergesDeterministically) {
  ExperimentConfig ref_cfg = make_cell("sar", PolicyKind::kHistory, true, 1);
  ref_cfg.telemetry.level = TraceLevel::kRequest;
  const ExperimentResult ref = run_experiment(ref_cfg);
  ASSERT_NE(ref.telemetry, nullptr);

  ExperimentConfig cfg = ref_cfg;
  cfg.shards = 3;
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_NE(r.telemetry, nullptr);
  EXPECT_EQ(r.telemetry->trace_events, ref.telemetry->trace_events);
  expect_bits(r.telemetry->energy_total_j.value(),
              ref.telemetry->energy_total_j.value(), "telemetry energy");
}

TEST(ShardTopologyValidation, RejectsInconsistentShardCounts) {
  ExperimentConfig cfg = make_cell("sar", PolicyKind::kNone, false, 9);
  cfg.storage.num_io_nodes = 8;
  EXPECT_THROW(validate_experiment_topology(cfg), std::invalid_argument);
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);

  cfg.shards = -1;
  EXPECT_THROW(validate_experiment_topology(cfg), std::invalid_argument);

  cfg.shards = 2;
  cfg.storage.network_latency = 0;
  EXPECT_THROW(validate_experiment_topology(cfg), std::invalid_argument);
}

TEST(ShardTopologyValidation, RejectsDegenerateTopologies) {
  ExperimentConfig cfg = make_cell("sar", PolicyKind::kNone, false, 0);
  cfg.scale.num_processes = 0;
  EXPECT_THROW(validate_experiment_topology(cfg), std::invalid_argument);

  cfg = make_cell("sar", PolicyKind::kNone, false, 0);
  cfg.storage.num_io_nodes = 0;
  EXPECT_THROW(validate_experiment_topology(cfg), std::invalid_argument);
}

TEST(ShardTopologyValidation, AcceptsTopologiesBeyondThePaperCap) {
  // >8 nodes and >32 clients are first-class configurations now; the
  // validator only rejects genuinely inconsistent combinations.
  ExperimentConfig cfg = make_cell("sar", PolicyKind::kNone, false, 4);
  cfg.scale.num_processes = 512;
  cfg.storage.num_io_nodes = 64;
  EXPECT_NO_THROW(validate_experiment_topology(cfg));
}

}  // namespace
}  // namespace dasched
