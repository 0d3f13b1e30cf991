#include "driver/multi_experiment.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>

#include "audit_report.h"
#include "driver/workspace.h"
#include "scoped_test_dir.h"
#include "telemetry/analytics.h"

namespace dasched {
namespace {

MultiExperimentConfig tiny(std::vector<std::string> apps) {
  MultiExperimentConfig cfg;
  cfg.apps = std::move(apps);
  cfg.base.scale.num_processes = 4;
  cfg.base.scale.factor = 0.1;
  return cfg;
}

TEST(MultiExperiment, TwoAppsRunToCompletion) {
  const MultiExperimentResult r =
      run_multi_experiment(tiny({"sar", "madbench2"}));
  ASSERT_EQ(r.exec_times.size(), 2u);
  EXPECT_GT(r.exec_times[0], 0);
  EXPECT_GT(r.exec_times[1], 0);
  EXPECT_EQ(r.makespan, std::max(r.exec_times[0], r.exec_times[1]));
  EXPECT_GT(r.energy_j.value(), 0.0);
}

TEST(MultiExperiment, SingleAppMatchesRegularExperiment) {
  const MultiExperimentResult multi = run_multi_experiment(tiny({"sar"}));
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  const ExperimentResult single = run_experiment(cfg);
  EXPECT_EQ(multi.exec_times[0], single.exec_time);
  EXPECT_DOUBLE_EQ(multi.energy_j.value(), single.energy_j.value());
}

TEST(MultiExperiment, ContentionSlowsBothApplications) {
  const MultiExperimentResult alone_a = run_multi_experiment(tiny({"sar"}));
  const MultiExperimentResult alone_b =
      run_multi_experiment(tiny({"madbench2"}));
  const MultiExperimentResult both =
      run_multi_experiment(tiny({"sar", "madbench2"}));
  EXPECT_GE(both.exec_times[0], alone_a.exec_times[0]);
  EXPECT_GE(both.exec_times[1], alone_b.exec_times[0]);
}

TEST(MultiExperiment, SchemeRunsOnBothApps) {
  MultiExperimentConfig cfg = tiny({"sar", "madbench2"});
  cfg.base.use_scheme = true;
  const MultiExperimentResult r = run_multi_experiment(cfg);
  ASSERT_EQ(r.runtime.size(), 2u);
  EXPECT_GT(r.runtime[0].prefetches + r.runtime[1].prefetches, 0);
}

TEST(MultiExperiment, WorksUnderAPolicy) {
  MultiExperimentConfig cfg = tiny({"sar", "madbench2"});
  cfg.base.policy = PolicyKind::kHistory;
  const MultiExperimentResult r = run_multi_experiment(cfg);
  EXPECT_GT(r.makespan, 0);
}

TEST(MultiExperiment, EmptyAppListThrows) {
  EXPECT_THROW((void)run_multi_experiment(MultiExperimentConfig{}),
               std::invalid_argument);
}

// A co-scheduled run validates its topology exactly like a single run: the
// same ConfigError, naming the same field, before any simulation state is
// built (these inputs used to crash or run silently).
TEST(MultiExperiment, RejectsInvalidTopology) {
  const std::vector<std::pair<const char*, std::function<void(ExperimentConfig&)>>>
      cases = {
          {"procs=0", [](ExperimentConfig& c) { c.scale.num_processes = 0; }},
          {"cache<stripe",
           [](ExperimentConfig& c) { c.storage.node.cache_capacity = kib(4); }},
          {"nodes=0", [](ExperimentConfig& c) { c.storage.num_io_nodes = 0; }},
          {"buffer<0",
           [](ExperimentConfig& c) { c.runtime.buffer_capacity = -1; }},
          {"delta<0", [](ExperimentConfig& c) { c.compile.sched.delta = -3; }},
          {"theta<0", [](ExperimentConfig& c) { c.compile.sched.theta = -3; }},
      };
  for (const auto& [name, mutate] : cases) {
    MultiExperimentConfig multi = tiny({"sar", "madbench2"});
    mutate(multi.base);
    ExperimentConfig single = multi.base;
    single.app = "sar";
    std::string want;
    try {
      (void)run_experiment(single);
      ADD_FAILURE() << name << ": run_experiment accepted the config";
    } catch (const ConfigError& e) {
      want = e.field();
    }
    try {
      (void)run_multi_experiment(multi);
      ADD_FAILURE() << name << ": run_multi_experiment accepted the config";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.field(), want) << name;
    }
  }
}

TEST(MultiExperiment, IdenticalRerunReusesWorkloadAndCompiles) {
  MultiExperimentConfig cfg = tiny({"sar", "madbench2"});
  cfg.base.use_scheme = true;
  ExperimentWorkspace ws;
  const MultiExperimentResult first = ws.run(cfg);
  const std::uint64_t builds = ws.workload_builds();
  const std::uint64_t misses = ws.compile_misses();
  const MultiExperimentResult second = ws.run(cfg);
  EXPECT_EQ(ws.workload_builds(), builds);
  EXPECT_EQ(ws.compile_misses(), misses);
  EXPECT_EQ(second.exec_times, first.exec_times);
  EXPECT_EQ(second.energy_j.value(), first.energy_j.value());
}

TEST(MultiExperiment, FiveLanesRerunMatchesFreshAndCompilesOnce) {
  // More lanes than one lane keeps compiles: each lane's compile is its own.
  MultiExperimentConfig cfg =
      tiny({"sar", "madbench2", "hf", "astro", "wupwise"});
  cfg.base.use_scheme = true;
  const MultiExperimentResult fresh = run_multi_experiment(cfg);
  ExperimentWorkspace ws;
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    const MultiExperimentResult r = ws.run(cfg);
    EXPECT_EQ(ws.compile_misses(), 5u);
    EXPECT_EQ(r.exec_times, fresh.exec_times);
    EXPECT_EQ(r.makespan, fresh.makespan);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.energy_j.value()),
              std::bit_cast<std::uint64_t>(fresh.energy_j.value()));
    EXPECT_EQ(r.storage.requests, fresh.storage.requests);
    EXPECT_EQ(r.storage.disk_requests, fresh.storage.disk_requests);
    ASSERT_EQ(r.runtime.size(), 5u);
    for (std::size_t i = 0; i < r.runtime.size(); ++i) {
      EXPECT_EQ(r.runtime[i].prefetches, fresh.runtime[i].prefetches)
          << cfg.apps[i];
      EXPECT_EQ(r.runtime[i].buffer_hits, fresh.runtime[i].buffer_hits)
          << cfg.apps[i];
      EXPECT_EQ(r.runtime[i].direct_reads, fresh.runtime[i].direct_reads)
          << cfg.apps[i];
    }
  }
  EXPECT_EQ(ws.workload_builds(), 1u);
}

TEST(MultiExperiment, TelemetryWritesSummaryAndReconcilesEnergy) {
  const ScopedTestDir tmp;
  MultiExperimentConfig cfg = tiny({"sar", "madbench2"});
  cfg.base.policy = PolicyKind::kHistory;
  cfg.base.telemetry.level = TraceLevel::kState;
  cfg.base.telemetry.dir = tmp.file("telemetry");
  const MultiExperimentResult r = run_multi_experiment(cfg);
  ASSERT_NE(r.telemetry, nullptr);
  EXPECT_EQ(r.telemetry->meta.app, "sar+madbench2");
  EXPECT_TRUE(std::filesystem::exists(tmp.file("telemetry/summary.json")));
  const double scale = std::max(std::fabs(r.energy_j.value()), 1.0);
  EXPECT_LE(std::fabs((r.telemetry->energy_total_j - r.energy_j).value()),
            1e-9 * scale);
  // Telemetry is passive: the traced run matches the untraced one.
  cfg.base.telemetry = {};
  EXPECT_EQ(run_multi_experiment(cfg).energy_j.value(), r.energy_j.value());
}

// The invariant auditor must hold for co-scheduled applications under every
// power policy (cfg.audit throws on a violation).  The first test keeps
// its name from when an external auditor ran it, so its test ids stay stable.
class MultiExperimentAudit : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(MultiExperimentAudit, CleanUnderExternalAuditor) {
  MultiExperimentConfig cfg = tiny({"sar", "madbench2"});
  cfg.base.policy = GetParam();
  cfg.base.use_scheme = true;
  cfg.base.audit = true;
  const MultiExperimentResult r = run_multi_experiment(cfg);
  EXPECT_TRUE(r.audited);
  // Four runtime checks over the shared stack plus one schedule check per
  // lane, all clean.
  EXPECT_GT(clean_audit_evaluations(r.audit_report, 6), 0) << r.audit_report;
  EXPECT_GT(r.makespan, 0);
}

TEST_P(MultiExperimentAudit, ConfigFlagAuditsWithoutThrowing) {
  MultiExperimentConfig cfg = tiny({"sar", "madbench2"});
  cfg.base.policy = GetParam();
  cfg.base.audit = true;
  const MultiExperimentResult r = run_multi_experiment(cfg);
  EXPECT_GT(r.makespan, 0);
}

TEST_P(MultiExperimentAudit, AuditedRunMatchesUnauditedRun) {
  MultiExperimentConfig cfg = tiny({"sar", "madbench2"});
  cfg.base.policy = GetParam();
  cfg.base.audit = false;
  const MultiExperimentResult plain = run_multi_experiment(cfg);
  EXPECT_FALSE(plain.audited);
  EXPECT_TRUE(plain.audit_report.empty()) << plain.audit_report;
  cfg.base.audit = true;
  const MultiExperimentResult audited = run_multi_experiment(cfg);
  EXPECT_TRUE(audited.audited);
  // Observation must not perturb the simulation.
  EXPECT_EQ(plain.makespan, audited.makespan);
  EXPECT_DOUBLE_EQ(plain.energy_j.value(), audited.energy_j.value());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, MultiExperimentAudit,
                         ::testing::Values(PolicyKind::kSimple,
                                           PolicyKind::kPrediction,
                                           PolicyKind::kHistory,
                                           PolicyKind::kStaggered),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace dasched
