// Shape-change and failure-recovery semantics of ExperimentWorkspace.
//
// The differential tests pin "reuse == fresh" for a fixed topology; these
// pin the *rebuild decisions*: a topology change rebuilds exactly the
// components whose shape changed (and the rebuilt stack matches fresh
// construction), the engine itself is never rebuilt, and a run that threw
// mid-flight poisons the workspace so the next run rebuilds from scratch
// instead of trusting half-mutated state.  Plus the grid level: a grid run,
// whose workers each reuse one workspace across cells, must be
// bit-identical to running every cell on a fresh stack.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "driver/workspace.h"
#include "engine/grid_runner.h"
#include "scoped_test_dir.h"

namespace dasched {
namespace {

ExperimentConfig base_cell() {
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  return cfg;
}

void expect_bits(double actual, double expected, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << what << ": got " << std::hexfloat << actual << ", expected "
      << expected << std::defaultfloat;
}

void expect_matches_fresh(ExperimentWorkspace& ws,
                          const ExperimentConfig& cfg) {
  const ExperimentResult fresh = run_experiment(cfg);
  const ExperimentResult& reused = ws.run(cfg);
  EXPECT_EQ(reused.exec_time.count(), fresh.exec_time.count());
  expect_bits(reused.energy_j.value(), fresh.energy_j.value(), "energy_j");
  EXPECT_EQ(reused.events, fresh.events);
  EXPECT_EQ(reused.storage.per_node.size(), fresh.storage.per_node.size());
}

TEST(WorkspaceShape, NodeCountChangeRebuildsCleanly) {
  ExperimentConfig cfg = base_cell();
  ExperimentWorkspace ws;
  expect_matches_fresh(ws, cfg);

  // Topology change: fewer I/O nodes.  The engine survives (it serves any
  // topology); storage and workload rebuild.
  cfg.storage.num_io_nodes = 4;
  expect_matches_fresh(ws, cfg);
  EXPECT_EQ(ws.engine_rebuilds(), 1u);
  EXPECT_EQ(ws.workload_builds(), 2u);

  // And back down: capacity stays (high-water mark), results stay exact.
  cfg.storage.num_io_nodes = 8;
  expect_matches_fresh(ws, cfg);
  EXPECT_EQ(ws.engine_rebuilds(), 1u);
}

TEST(WorkspaceShape, DiskAndPolicyChangesResetInPlace) {
  ExperimentConfig cfg = base_cell();
  ExperimentWorkspace ws;
  expect_matches_fresh(ws, cfg);

  cfg.storage.node.disk.seek_max = msec(20.0);  // disk reset to new params
  expect_matches_fresh(ws, cfg);

  cfg.policy = PolicyKind::kStaggered;  // policy swap on warm disks
  expect_matches_fresh(ws, cfg);

  cfg.policy = PolicyKind::kNone;  // policy removal
  expect_matches_fresh(ws, cfg);
  EXPECT_EQ(ws.engine_rebuilds(), 1u)
      << "none of these shapes should touch the engine";
}

TEST(WorkspaceShape, InvalidTopologyRejectedWithoutPoisoning) {
  ExperimentWorkspace ws;
  expect_matches_fresh(ws, base_cell());

  ExperimentConfig bad = base_cell();
  bad.storage.node.cache_capacity = 0;  // below one stripe-sized block
  EXPECT_THROW((void)ws.run(bad), ConfigError);
  // Validation fails before any component is touched: not poisoned, and the
  // warm stack keeps producing exact results.
  EXPECT_FALSE(ws.poisoned());
  expect_matches_fresh(ws, base_cell());
}

TEST(WorkspaceShape, MidRunThrowPoisonsThenRecovers) {
  const ScopedTestDir tmp;
  const std::filesystem::path& dir = tmp.path();
  // A regular file where the telemetry path wants a directory: the run
  // executes fully, then throws inside the telemetry export — after the
  // simulation mutated every component, i.e. a genuine mid-run failure.
  { std::ofstream block(dir / "blocker"); }

  ExperimentConfig cfg = base_cell();
  ExperimentWorkspace ws;
  expect_matches_fresh(ws, cfg);

  ExperimentConfig traced = cfg;
  traced.telemetry.level = TraceLevel::kState;
  traced.telemetry.dir = (dir / "blocker" / "sub").string();
  EXPECT_THROW((void)ws.run(traced), std::exception);
  EXPECT_TRUE(ws.poisoned());

  // The next run detects the poison, rebuilds from scratch, and is exact.
  expect_matches_fresh(ws, cfg);
  EXPECT_FALSE(ws.poisoned());
  expect_matches_fresh(ws, cfg);
}

TEST(WorkspaceShape, GridReuseMatchesFreshCells) {
  ExperimentGrid grid;
  grid.base = base_cell();
  grid.apps = {"sar", "madbench2"};
  grid.policies = {PolicyKind::kHistory, PolicyKind::kSimple};
  grid.schemes = {false, true};

  GridRunOptions opts;
  opts.threads = 1;  // one worker, so one workspace sees every cell
  const GridResultSet reused = run_grid(grid, opts);
  ASSERT_EQ(reused.size(), grid.size());
  for (std::size_t i = 0; i < reused.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const ExperimentResult a = run_experiment(reused.rows()[i].cell.config);
    const ExperimentResult& b = reused.rows()[i].result;
    EXPECT_EQ(a.exec_time.count(), b.exec_time.count());
    expect_bits(a.energy_j.value(), b.energy_j.value(), "energy_j");
    expect_bits(a.storage.cache_hit_rate, b.storage.cache_hit_rate,
                "cache_hit_rate");
    EXPECT_EQ(a.events, b.events);
  }
}

}  // namespace
}  // namespace dasched
