#include "engine/experiment_grid.h"

#include <set>

#include <gtest/gtest.h>

namespace dasched {
namespace {

TEST(ExperimentGrid, SizeIsAxisProduct) {
  ExperimentGrid grid;
  grid.apps = {"sar", "madbench2"};
  grid.policies = {PolicyKind::kNone, PolicyKind::kHistory,
                   PolicyKind::kSimple};
  grid.schemes = {false, true};
  EXPECT_EQ(grid.size(), 12u);
  grid.sweep = sweep_axis_by_name("nodes", {2, 4, 8});
  EXPECT_EQ(grid.size(), 36u);
}

TEST(ExperimentGrid, EnumerationIsAppMajorDeterministic) {
  ExperimentGrid grid;
  grid.apps = {"sar", "madbench2"};
  grid.policies = {PolicyKind::kNone, PolicyKind::kHistory};
  grid.schemes = {false, true};
  const std::vector<GridCell> cells = grid.cells();
  ASSERT_EQ(cells.size(), 8u);
  // app-major, then policy, then scheme.
  EXPECT_EQ(cells[0].app, "sar");
  EXPECT_EQ(cells[0].policy, PolicyKind::kNone);
  EXPECT_FALSE(cells[0].scheme);
  EXPECT_TRUE(cells[1].scheme);
  EXPECT_EQ(cells[2].policy, PolicyKind::kHistory);
  EXPECT_EQ(cells[4].app, "madbench2");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].config.app, cells[i].app);
    EXPECT_EQ(cells[i].config.policy, cells[i].policy);
    EXPECT_EQ(cells[i].config.use_scheme, cells[i].scheme);
  }
  // Enumeration is a pure function of the declaration.
  const std::vector<GridCell> again = grid.cells();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].config.seed, again[i].config.seed);
  }
}

TEST(ExperimentGrid, DerivedSeedsAreDistinctAndStable) {
  ExperimentGrid grid;
  grid.apps = {"sar", "madbench2"};
  grid.policies = {PolicyKind::kNone, PolicyKind::kHistory};
  grid.schemes = {false, true};
  std::set<std::uint64_t> seeds;
  for (const GridCell& cell : grid.cells()) {
    seeds.insert(cell.config.seed);
    EXPECT_EQ(cell.config.seed,
              ExperimentGrid::derive_seed(grid.base_seed, cell.index));
  }
  EXPECT_EQ(seeds.size(), grid.size());  // no collisions in a small grid

  // A different base seed decorrelates every cell.
  grid.base_seed = 2;
  for (const GridCell& cell : grid.cells()) {
    EXPECT_EQ(seeds.count(cell.config.seed), 0u);
  }
}

TEST(ExperimentGrid, DeriveSeedsOffUsesBaseSeedEverywhere) {
  ExperimentGrid grid;
  grid.apps = {"sar", "madbench2"};
  grid.schemes = {false, true};
  grid.base_seed = 77;
  grid.derive_seeds = false;
  for (const GridCell& cell : grid.cells()) {
    EXPECT_EQ(cell.config.seed, 77u);
  }
}

TEST(ExperimentGrid, SweepAxisAppliesToConfig) {
  ExperimentGrid grid;
  grid.sweep = sweep_axis_by_name("nodes", {2, 16});
  std::vector<GridCell> cells = grid.cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_TRUE(cells[0].has_sweep);
  EXPECT_EQ(cells[0].sweep_name, "nodes");
  EXPECT_EQ(cells[0].config.storage.num_io_nodes, 2);
  EXPECT_EQ(cells[1].config.storage.num_io_nodes, 16);

  grid.sweep = sweep_axis_by_name("theta", {6});
  EXPECT_EQ(grid.cells()[0].config.compile.sched.theta, 6);
  grid.sweep = sweep_axis_by_name("delta", {40});
  EXPECT_EQ(grid.cells()[0].config.compile.sched.delta, 40);
  grid.sweep = sweep_axis_by_name("slack", {200});
  EXPECT_EQ(grid.cells()[0].config.max_slack, 200);
  grid.sweep = sweep_axis_by_name("cache_mib", {32});
  EXPECT_EQ(grid.cells()[0].config.storage.node.cache_capacity, mib(32));
  grid.sweep = sweep_axis_by_name("buffer_mib", {64});
  EXPECT_EQ(grid.cells()[0].config.runtime.buffer_capacity, mib(64));
}

TEST(ExperimentGrid, UnknownSweepAxisThrows) {
  EXPECT_THROW((void)sweep_axis_by_name("warp", {1}), std::invalid_argument);
  // The retired engine selector is not a sweep axis.
  EXPECT_THROW((void)sweep_axis_by_name("shards", {1}), std::invalid_argument);
}

TEST(ExperimentGrid, SweepRejectsValuesItsIntegerFieldCannotHold) {
  // nodes=2.5 once ran as 2 nodes under a "2.5" label, and 1e20 was an
  // undefined float-to-int conversion.
  for (const double bad : {2.5, 1e20, -3e9}) {
    try {
      (void)sweep_axis_by_name("nodes", {2, bad});
      FAIL() << "sweep value accepted: " << bad;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.field(), "sweep");
    }
  }
  const SweepAxis ok = sweep_axis_by_name("slack", {-1, 0, 2147483647});
  EXPECT_EQ(ok.values.size(), 3u);
}

TEST(ExperimentGrid, EmptyAxisThrows) {
  ExperimentGrid grid;
  grid.apps.clear();
  EXPECT_THROW((void)grid.cells(), std::invalid_argument);
}

TEST(ExperimentGrid, BaseConfigFieldsSurviveExpansion) {
  ExperimentGrid grid;
  grid.base.scale.num_processes = 4;
  grid.base.scale.factor = 0.25;
  grid.base.compile.sched.delta = 11;
  for (const GridCell& cell : grid.cells()) {
    EXPECT_EQ(cell.config.scale.num_processes, 4);
    EXPECT_DOUBLE_EQ(cell.config.scale.factor, 0.25);
    EXPECT_EQ(cell.config.compile.sched.delta, 11);
  }
}

}  // namespace
}  // namespace dasched
