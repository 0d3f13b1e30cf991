// End-to-end property sweep over storage geometries: every combination of
// I/O-node count, cache capacity and prefetch depth must serve mixed
// read/write streams to completion with consistent accounting.
#include <gtest/gtest.h>

#include "storage/storage_system.h"
#include "util/rng.h"

namespace dasched {
namespace {

struct GeometryCase {
  int nodes;
  int cache_mib;
  int prefetch_depth;
};

class StorageGeometry : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(StorageGeometry, MixedWorkloadCompletesWithConsistentAccounting) {
  const GeometryCase& g = GetParam();
  Simulator sim;
  StorageConfig cfg;
  cfg.num_io_nodes = g.nodes;
  cfg.node.cache_capacity = mib(g.cache_mib);
  cfg.node.prefetch_depth = g.prefetch_depth;
  StorageSystem storage(sim, cfg);
  const FileId f = storage.create_file("data", mib(64));

  Rng rng(g.nodes * 100 + g.cache_mib);
  int completed = 0;
  const int total = 120;
  for (int i = 0; i < total; ++i) {
    const Bytes offset =
        (rng.next_below(900)) * kib(64);
    const Bytes size = kib(static_cast<std::int64_t>(1 + rng.next_below(256)));
    const SimTime when = static_cast<SimTime>(rng.next_below(2'000)) * 1'000;
    sim.schedule_at(when, [&storage, &completed, f, offset, size, i] {
      if (i % 3 == 0) {
        storage.write(f, offset, size, [&completed] { ++completed; });
      } else {
        storage.read(f, offset, size, [&completed] { ++completed; });
      }
    });
  }
  sim.run();
  EXPECT_EQ(completed, total);

  StorageStats stats = storage.finalize();
  EXPECT_EQ(static_cast<int>(stats.per_node.size()), g.nodes);
  EXPECT_GT(stats.energy_j.value(), 0.0);
  EXPECT_GT(stats.disk_requests, 0);
  std::int64_t node_requests = 0;
  for (const IoNodeStats& n : stats.per_node) node_requests += n.disk_requests;
  EXPECT_EQ(node_requests, stats.disk_requests);
  // Energy must be consistent with the node count: every node's disk idles
  // at >= standby power for the whole run.
  const double floor = 7.2 * to_sec(sim.now()) * g.nodes * 0.5;
  EXPECT_GT(stats.energy_j.value(), floor);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, StorageGeometry,
    ::testing::Values(GeometryCase{2, 2, 1}, GeometryCase{8, 2, 1},
                      GeometryCase{32, 2, 1}, GeometryCase{4, 1, 0},
                      GeometryCase{8, 8, 2}));

TEST(StoragePolicyMatrix, EveryPolicyServesEveryGeometry) {
  for (PolicyKind kind :
       {PolicyKind::kSimple, PolicyKind::kPrediction, PolicyKind::kHistory,
        PolicyKind::kStaggered}) {
    for (int nodes : {1, 4}) {
      Simulator sim;
      StorageConfig cfg;
      cfg.num_io_nodes = nodes;
      cfg.node.policy = kind;
      StorageSystem storage(sim, cfg);
      const FileId f = storage.create_file("data", mib(8));
      int completed = 0;
      for (int i = 0; i < 10; ++i) {
        sim.schedule_at((i) * sec(5.0), [&, i] {
          storage.read(f, (i) * kib(64), kib(64),
                       [&completed] { ++completed; });
        });
      }
      sim.run(sec(120.0));
      EXPECT_EQ(completed, 10) << to_string(kind) << " on " << nodes
                               << " nodes";
    }
  }
}

}  // namespace
}  // namespace dasched
