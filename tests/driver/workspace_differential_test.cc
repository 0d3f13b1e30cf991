// Workspace reuse must be bit-identical to fresh construction.
//
// Every cell below runs twice: once through the classic fresh-per-call
// `run_experiment(cfg)` and once through a shared `ExperimentWorkspace`
// that has already executed other cells (so its pools, caches and arenas
// are warm and its free lists are recycled).  Every field of the result —
// including each double compared through bit_cast, the per-node stats and
// the idle-period histograms bucket by bucket — must match exactly.  A
// one-ulp drift anywhere means some reset() left observable state behind
// (DESIGN.md §16 explains why none may).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "driver/workspace.h"
#include "scoped_test_dir.h"
#include "telemetry/analytics.h"
#include "telemetry/trace_io.h"

namespace dasched {
namespace {

ExperimentConfig cell(const char* app, PolicyKind policy, bool scheme) {
  ExperimentConfig cfg;
  cfg.app = app;
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  cfg.policy = policy;
  cfg.use_scheme = scheme;
  return cfg;
}

void expect_bits(double actual, double expected, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << what << ": got " << std::hexfloat << actual << ", fresh run produced "
      << expected << std::defaultfloat;
}

void expect_same_histogram(const DurationHistogram& a,
                           const DurationHistogram& b, const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  expect_bits(a.total_msec(), b.total_msec(), what);
  ASSERT_EQ(a.counts().size(), b.counts().size()) << what;
  for (std::size_t i = 0; i < a.counts().size(); ++i) {
    EXPECT_EQ(a.counts()[i], b.counts()[i]) << what << " bucket " << i;
  }
}

void expect_same_result(const ExperimentResult& ws,
                        const ExperimentResult& fresh) {
  EXPECT_EQ(ws.app, fresh.app);
  EXPECT_EQ(ws.policy, fresh.policy);
  EXPECT_EQ(ws.scheme, fresh.scheme);
  EXPECT_EQ(ws.exec_time.count(), fresh.exec_time.count());
  expect_bits(ws.energy_j.value(), fresh.energy_j.value(), "energy_j");
  EXPECT_EQ(ws.events, fresh.events);

  expect_bits(ws.storage.energy_j.value(), fresh.storage.energy_j.value(),
              "storage.energy_j");
  EXPECT_EQ(ws.storage.requests, fresh.storage.requests);
  EXPECT_EQ(ws.storage.disk_requests, fresh.storage.disk_requests);
  EXPECT_EQ(ws.storage.spin_downs, fresh.storage.spin_downs);
  EXPECT_EQ(ws.storage.spin_ups, fresh.storage.spin_ups);
  EXPECT_EQ(ws.storage.rpm_changes, fresh.storage.rpm_changes);
  expect_bits(ws.storage.cache_hit_rate, fresh.storage.cache_hit_rate,
              "cache_hit_rate");
  expect_same_histogram(ws.storage.idle_periods, fresh.storage.idle_periods,
                        "storage.idle_periods");
  ASSERT_EQ(ws.storage.per_node.size(), fresh.storage.per_node.size());
  for (std::size_t i = 0; i < ws.storage.per_node.size(); ++i) {
    const IoNodeStats& a = ws.storage.per_node[i];
    const IoNodeStats& b = fresh.storage.per_node[i];
    expect_bits(a.energy_j.value(), b.energy_j.value(), "node energy");
    EXPECT_EQ(a.requests, b.requests) << "node " << i;
    EXPECT_EQ(a.disk_requests, b.disk_requests) << "node " << i;
    EXPECT_EQ(a.spin_downs, b.spin_downs) << "node " << i;
    EXPECT_EQ(a.spin_ups, b.spin_ups) << "node " << i;
    EXPECT_EQ(a.rpm_changes, b.rpm_changes) << "node " << i;
    EXPECT_EQ(a.cache.hits, b.cache.hits) << "node " << i;
    EXPECT_EQ(a.cache.misses, b.cache.misses) << "node " << i;
    EXPECT_EQ(a.cache.insertions, b.cache.insertions) << "node " << i;
    EXPECT_EQ(a.cache.evictions, b.cache.evictions) << "node " << i;
    expect_same_histogram(a.idle_periods, b.idle_periods, "node idle");
  }

  EXPECT_EQ(ws.runtime.buffer_hits, fresh.runtime.buffer_hits);
  EXPECT_EQ(ws.runtime.in_flight_hits, fresh.runtime.in_flight_hits);
  EXPECT_EQ(ws.runtime.direct_reads, fresh.runtime.direct_reads);
  EXPECT_EQ(ws.runtime.writes, fresh.runtime.writes);
  EXPECT_EQ(ws.runtime.prefetches, fresh.runtime.prefetches);
  EXPECT_EQ(ws.runtime.skipped_min_lead, fresh.runtime.skipped_min_lead);
  EXPECT_EQ(ws.runtime.buffer.reservations, fresh.runtime.buffer.reservations);
  EXPECT_EQ(ws.runtime.buffer.full_rejections,
            fresh.runtime.buffer.full_rejections);
  EXPECT_EQ(ws.runtime.buffer.consumed, fresh.runtime.buffer.consumed);
  EXPECT_EQ(ws.runtime.buffer.consumed_in_flight,
            fresh.runtime.buffer.consumed_in_flight);
  EXPECT_EQ(ws.runtime.buffer.wasted, fresh.runtime.buffer.wasted);

  EXPECT_EQ(ws.sched.scheduled, fresh.sched.scheduled);
  EXPECT_EQ(ws.sched.forced, fresh.sched.forced);
  EXPECT_EQ(ws.sched.theta_fallbacks, fresh.sched.theta_fallbacks);
  expect_bits(ws.sched.mean_advance_slots, fresh.sched.mean_advance_slots,
              "mean_advance_slots");
}

/// Runs every cell fresh, then the whole list twice through one workspace.
/// The second pass is the interesting one: every component is warm, every
/// compile is a cache hit, and the results must still match the fresh runs.
void check_cells(const std::vector<ExperimentConfig>& cells) {
  std::vector<ExperimentResult> fresh;
  fresh.reserve(cells.size());
  for (const ExperimentConfig& cfg : cells) {
    fresh.push_back(run_experiment(cfg));
  }
  ExperimentWorkspace ws;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      SCOPED_TRACE("pass " + std::to_string(pass) + " cell " +
                   std::to_string(i) + " (" + cells[i].app + ")");
      expect_same_result(ws.run(cells[i]), fresh[i]);
    }
  }
  EXPECT_EQ(ws.runs_completed(), cells.size() * 2);
}

TEST(WorkspaceDifferential, ClassicEngineCellsMatchFreshRuns) {
  check_cells({
      cell("sar", PolicyKind::kHistory, true),
      cell("sar", PolicyKind::kHistory, false),
      cell("madbench2", PolicyKind::kSimple, false),
      cell("madbench2", PolicyKind::kSimple, true),
      cell("hf", PolicyKind::kNone, true),
  });
}

TEST(WorkspaceDifferential, StarvedBufferCellMatchesFreshRuns) {
  // Most of the 64 scheduler threads pause for space: a rerun must start
  // with no thread still holding the entry it last paused on.
  ExperimentConfig starved = cell("sar", PolicyKind::kHistory, true);
  starved.scale.num_processes = 64;
  starved.scale.factor = 0.05;
  starved.storage.num_io_nodes = 16;
  starved.runtime.buffer_capacity = mib(1);
  check_cells({starved});
}

TEST(WorkspaceDifferential, ReuseUnderAuditMatchesFreshRuns) {
  auto audited = [](const char* app, PolicyKind policy, bool scheme) {
    ExperimentConfig cfg = cell(app, policy, scheme);
    cfg.audit = true;
    return cfg;
  };
  check_cells({
      audited("sar", PolicyKind::kHistory, true),
      audited("madbench2", PolicyKind::kSimple, false),
      audited("hf", PolicyKind::kStaggered, true),
  });
}

TEST(WorkspaceDifferential, ReuseUnderTraceMatchesFreshRuns) {
  // kFull trace records every placement from the compiled schedule, so a
  // cached compile must serve the trace as well as the fresh one it was.
  auto traced = [](const char* app, PolicyKind policy, bool scheme) {
    ExperimentConfig cfg = cell(app, policy, scheme);
    cfg.telemetry.level = TraceLevel::kFull;
    return cfg;
  };
  const ExperimentConfig a = traced("sar", PolicyKind::kHistory, true);
  const ExperimentConfig b = traced("madbench2", PolicyKind::kSimple, false);
  const ExperimentResult fresh_a = run_experiment(a);
  const ExperimentResult fresh_b = run_experiment(b);
  ASSERT_NE(fresh_a.telemetry, nullptr);

  ExperimentWorkspace ws;
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    const ExperimentResult& ra = ws.run(a);
    expect_same_result(ra, fresh_a);
    ASSERT_NE(ra.telemetry, nullptr);
    expect_bits(ra.telemetry->energy_total_j.value(),
                fresh_a.telemetry->energy_total_j.value(),
                "telemetry energy_total_j");
    const ExperimentResult& rb = ws.run(b);
    expect_same_result(rb, fresh_b);
  }
}

void expect_same_events(const std::vector<TraceEvent>& got,
                        const std::vector<TraceEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const TraceEvent& a = got[i];
    const TraceEvent& b = want[i];
    ASSERT_TRUE(a.time == b.time && a.kind == b.kind &&
                a.subject == b.subject && a.aux == b.aux &&
                a.arg0 == b.arg0 && a.arg1 == b.arg1)
        << "event " << i << " (kind " << a.kind << " vs " << b.kind << ")";
  }
}

TEST(WorkspaceDifferential, FullTraceRunsHitTheCompileCache) {
  // Placements are read from the compiled schedule, so a fully traced run
  // reuses a cached compile like any other, and its trace still matches a
  // fresh run's event for event, placements included.
  const ScopedTestDir tmp;
  ExperimentConfig cfg = cell("sar", PolicyKind::kHistory, true);
  cfg.telemetry.level = TraceLevel::kFull;
  cfg.telemetry.dir = tmp.file("fresh");
  const ExperimentResult fresh = run_experiment(cfg);
  ASSERT_NE(fresh.telemetry, nullptr);
  EXPECT_GT(fresh.telemetry->accesses_placed, 0);
  const auto want = load_trace(tmp.file("fresh/trace.bin"));
  ASSERT_TRUE(want.has_value());

  ExperimentWorkspace ws;
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    cfg.telemetry.dir = tmp.file("ws" + std::to_string(run));
    expect_same_result(ws.run(cfg), fresh);
    const auto got = load_trace(cfg.telemetry.dir + "/trace.bin");
    ASSERT_TRUE(got.has_value());
    expect_same_events(got->events, want->events);
  }
  EXPECT_EQ(ws.compile_misses(), 1u);
}

TEST(WorkspaceDifferential, AppSwitchRecompilesAfterEachRebuild) {
  // sar and wupwise share a length unit, so their compile options are
  // identical: only the workload rebuild's clear keeps run B from reusing
  // A's schedule, and run A again from reusing B's.
  const ExperimentConfig a = cell("sar", PolicyKind::kHistory, true);
  const ExperimentConfig b = cell("wupwise", PolicyKind::kHistory, true);
  const ExperimentResult fresh_a = run_experiment(a);
  const ExperimentResult fresh_b = run_experiment(b);
  ExperimentWorkspace ws;
  expect_same_result(ws.run(a), fresh_a);
  expect_same_result(ws.run(b), fresh_b);
  expect_same_result(ws.run(a), fresh_a);
  EXPECT_EQ(ws.workload_builds(), 3u);
  EXPECT_EQ(ws.compile_misses(), 3u);
}

TEST(WorkspaceDifferential, RebuildCountersShowReuse) {
  // Not just "same answer": the workspace must actually be reusing.  Five
  // runs over two configs that share engine + topology + workload must
  // build the engine once, the workload once per app, and compile once per
  // distinct option set.
  const ExperimentConfig a = cell("sar", PolicyKind::kHistory, true);
  const ExperimentConfig b = cell("sar", PolicyKind::kHistory, false);
  ExperimentWorkspace ws;
  (void)ws.run(a);
  (void)ws.run(b);
  (void)ws.run(a);
  (void)ws.run(b);
  (void)ws.run(a);
  EXPECT_EQ(ws.engine_rebuilds(), 1u);
  EXPECT_EQ(ws.workload_builds(), 1u);
  EXPECT_EQ(ws.compile_misses(), 2u);  // scheme on + scheme off
  EXPECT_EQ(ws.runs_completed(), 5u);
}

}  // namespace
}  // namespace dasched
