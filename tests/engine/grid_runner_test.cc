#include "engine/grid_runner.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include <gtest/gtest.h>

namespace dasched {
namespace {

ExperimentGrid tiny_grid() {
  ExperimentGrid grid;
  grid.base.scale.num_processes = 4;
  grid.base.scale.factor = 0.05;
  grid.apps = {"sar", "madbench2"};
  grid.policies = {PolicyKind::kNone, PolicyKind::kHistory};
  grid.schemes = {false, true};
  return grid;  // 8 cells
}

// Every field that the simulation derives must agree bit-for-bit; this is
// the contract that lets benches run parallel by default.
void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.energy_j, b.energy_j);  // exact, not approximate
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.storage.spin_downs, b.storage.spin_downs);
  EXPECT_EQ(a.storage.spin_ups, b.storage.spin_ups);
  EXPECT_EQ(a.storage.rpm_changes, b.storage.rpm_changes);
  EXPECT_EQ(a.storage.cache_hit_rate, b.storage.cache_hit_rate);
  EXPECT_EQ(a.storage.idle_periods.count(), b.storage.idle_periods.count());
  EXPECT_EQ(a.runtime.prefetches, b.runtime.prefetches);
  EXPECT_EQ(a.runtime.buffer_hits, b.runtime.buffer_hits);
  EXPECT_EQ(a.runtime.in_flight_hits, b.runtime.in_flight_hits);
  EXPECT_EQ(a.runtime.direct_reads, b.runtime.direct_reads);
  EXPECT_EQ(a.sched.scheduled, b.sched.scheduled);
  EXPECT_EQ(a.sched.mean_advance_slots, b.sched.mean_advance_slots);
}

TEST(GridRunner, ParallelRunIsBitIdenticalToSerial) {
  const ExperimentGrid grid = tiny_grid();
  GridRunOptions serial;
  serial.threads = 1;
  GridRunOptions parallel;
  parallel.threads = 8;
  const GridResultSet s = run_grid(grid, serial);
  const GridResultSet p = run_grid(grid, parallel);
  ASSERT_EQ(s.size(), grid.size());
  ASSERT_EQ(p.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    // Results must come back in cell-enumeration order regardless of which
    // worker ran them, and every derived quantity must match exactly.
    EXPECT_EQ(p.rows()[i].cell.index, i);
    EXPECT_EQ(p.rows()[i].cell.app, s.rows()[i].cell.app);
    expect_identical(s.rows()[i].result, p.rows()[i].result);
  }
}

TEST(GridRunner, ProgressTapSeesEveryCell) {
  ExperimentGrid grid = tiny_grid();
  grid.apps = {"sar"};  // 4 cells
  std::atomic<int> done{0};
  GridRunOptions opts;
  opts.threads = 4;
  opts.on_cell_done = [&done](const GridCell&) { ++done; };
  const GridResultSet r = run_grid(grid, opts);
  EXPECT_EQ(done.load(), static_cast<int>(grid.size()));
  EXPECT_EQ(r.size(), grid.size());
}

TEST(GridRunner, AuditOptionAuditsEveryCell) {
  ExperimentGrid grid = tiny_grid();
  grid.apps = {"sar"};
  grid.base.audit = true;
  GridRunOptions opts;
  opts.threads = 2;
  const GridResultSet r = run_grid(grid, opts);
  for (const GridCellResult& row : r.rows()) {
    EXPECT_TRUE(row.result.audited);
    EXPECT_EQ(row.result.audit_violations, 0);
  }
}

TEST(GridRunner, CellExceptionPropagatesFromWorkerPool) {
  ExperimentGrid grid = tiny_grid();
  grid.apps = {"sar", "no-such-app"};
  GridRunOptions opts;
  opts.threads = 4;
  EXPECT_THROW((void)run_grid(grid, opts), std::exception);
  opts.threads = 1;
  EXPECT_THROW((void)run_grid(grid, opts), std::exception);
}

TEST(GridRunner, FindLooksUpCellsAndThrowsOnMiss) {
  ExperimentGrid grid = tiny_grid();
  grid.apps = {"sar"};
  const GridResultSet r = run_grid(grid, GridRunOptions{});
  EXPECT_EQ(r.find("sar", PolicyKind::kHistory, true).app, "sar");
  EXPECT_THROW((void)r.find("sar", PolicyKind::kSimple, false),
               std::out_of_range);
  EXPECT_THROW((void)r.find("hf", PolicyKind::kNone, false),
               std::out_of_range);
}

TEST(GridRunner, AppendMergesResultSetsForLookup) {
  ExperimentGrid grid = tiny_grid();
  grid.apps = {"sar"};
  grid.policies = {PolicyKind::kNone};
  grid.schemes = {false};
  GridResultSet a = run_grid(grid, GridRunOptions{});
  grid.policies = {PolicyKind::kHistory};
  a.append(run_grid(grid, GridRunOptions{}));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_NO_THROW((void)a.find("sar", PolicyKind::kNone, false));
  EXPECT_NO_THROW((void)a.find("sar", PolicyKind::kHistory, false));
}

TEST(GridRunner, ResolveThreadsHonoursEnvKnob) {
  ::setenv("DASCHED_GRID_THREADS", "3", 1);
  EXPECT_EQ(resolve_grid_threads(0), 3);
  EXPECT_EQ(resolve_grid_threads(5), 5);  // explicit request wins
  ::unsetenv("DASCHED_GRID_THREADS");
  EXPECT_GE(resolve_grid_threads(0), 1);
}

TEST(GridRunner, SweepGridRunsAndLooksUpByValue) {
  ExperimentGrid grid = tiny_grid();
  grid.apps = {"sar"};
  grid.policies = {PolicyKind::kHistory};
  grid.schemes = {true};
  grid.sweep = sweep_axis_by_name("nodes", {2, 4});
  GridRunOptions opts;
  opts.threads = 2;
  const GridResultSet r = run_grid(grid, opts);
  const ExperimentResult& two = r.find("sar", PolicyKind::kHistory, true, 2.0);
  const ExperimentResult& four = r.find("sar", PolicyKind::kHistory, true, 4.0);
  EXPECT_GT(two.energy_j.value(), 0.0);
  EXPECT_GT(four.energy_j.value(), 0.0);
  EXPECT_THROW((void)r.find("sar", PolicyKind::kHistory, true, 8.0),
               std::out_of_range);
}

}  // namespace
}  // namespace dasched
