#include "storage/io_node.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace dasched {
namespace {

IoNodeConfig small_config() {
  IoNodeConfig cfg;
  cfg.cache_capacity = mib(1);
  cfg.prefetch_depth = 0;
  return cfg;
}

TEST(IoNode, ReadMissGoesToDisk) {
  Simulator sim;
  IoNode node(sim, small_config(), 0, 1);
  bool done = false;
  node.read(0, kib(64), [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  IoNodeStats s = node.finalize();
  EXPECT_EQ(s.cache.misses, 1);
  EXPECT_EQ(s.disk_requests, 1);
}

TEST(IoNode, SecondReadHitsCacheWithoutDisk) {
  Simulator sim;
  IoNode node(sim, small_config(), 0, 1);
  node.read(0, kib(64), {});
  sim.run();
  SimTime start = sim.now();
  SimTime done_at = 0;
  node.read(0, kib(64), [&] { done_at = sim.now(); });
  sim.run();
  IoNodeStats s = node.finalize();
  EXPECT_EQ(s.cache.hits, 1);
  EXPECT_EQ(s.disk_requests, 1);  // still just the first fill
  EXPECT_EQ(done_at - start, small_config().cache_hit_latency);
}

TEST(IoNode, MultiBlockReadJoinsAllPieces) {
  Simulator sim;
  IoNode node(sim, small_config(), 0, 1);
  bool done = false;
  node.read(0, kib(64) * 4, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  IoNodeStats s = node.finalize();
  EXPECT_EQ(s.cache.misses, 4);
  EXPECT_EQ(s.disk_requests, 4);
}

TEST(IoNode, SequentialPrefetchWarmsFollowingBlocks) {
  Simulator sim;
  IoNodeConfig cfg = small_config();
  cfg.prefetch_depth = 2;
  IoNode node(sim, cfg, 0, 1);
  node.read(0, kib(64), {});
  sim.run();
  // Blocks 1 and 2 were prefetched: reading them now hits the cache.
  node.read(kib(64), kib(128), {});
  sim.run();
  IoNodeStats s = node.finalize();
  EXPECT_EQ(s.cache.hits, 2);
  EXPECT_EQ(s.cache.misses, 1);
}

TEST(IoNode, WriteAcksEarlyAndDrainsInBackground) {
  Simulator sim;
  IoNode node(sim, small_config(), 0, 1);
  SimTime ack = 0;
  node.write(0, kib(64), [&] { ack = sim.now(); });
  sim.run();
  EXPECT_EQ(ack, small_config().cache_hit_latency);
  IoNodeStats s = node.finalize();
  EXPECT_EQ(s.disk_requests, 1);  // the background flush still happened
}

TEST(IoNode, WriteMakesBlockCacheResident) {
  Simulator sim;
  IoNode node(sim, small_config(), 0, 1);
  node.write(0, kib(64), {});
  sim.run();
  node.read(0, kib(64), {});
  sim.run();
  IoNodeStats s = node.finalize();
  EXPECT_EQ(s.cache.hits, 1);
}

// Records the byte range of every request the node hands its disk.
struct SubmittedRanges : DiskObserver {
  std::vector<std::pair<Bytes, Bytes>> ranges;
  void on_request_submitted(const Disk& disk, const DiskRequest& req) override {
    (void)disk;
    ranges.emplace_back(req.offset, req.size);
  }
};

// Counts what the node reports through `on_disk_requests_issued`.
struct IssuedCount : IoNodeObserver {
  std::size_t total = 0;
  void on_disk_requests_issued(const IoNode& node, std::size_t count) override {
    (void)node;
    total += count;
  }
};

TEST(IoNode, WriteSpanningKChunksIssuesKDiskRequests) {
  Simulator sim;
  IoNode node(sim, small_config(), 0, 1);
  SubmittedRanges submitted;
  IssuedCount issued;
  node.disk().add_observer(&submitted);
  node.add_observer(&issued);
  node.write(kib(64), kib(64) * 3, {});
  sim.run();
  IoNodeStats s = node.finalize();
  EXPECT_EQ(s.disk_requests, 3);
  EXPECT_EQ(issued.total, 3u);
  const std::vector<std::pair<Bytes, Bytes>> want = {
      {kib(64), kib(64)}, {kib(128), kib(64)}, {kib(192), kib(64)}};
  EXPECT_EQ(submitted.ranges, want);
}

TEST(IoNode, WriteStraddlingOneChunkBoundaryIssuesTwoDiskRequests) {
  Simulator sim;
  IoNode node(sim, small_config(), 0, 1);
  SubmittedRanges submitted;
  IssuedCount issued;
  node.disk().add_observer(&submitted);
  node.add_observer(&issued);
  node.write(kib(48), kib(32), {});
  sim.run();
  IoNodeStats s = node.finalize();
  EXPECT_EQ(s.disk_requests, 2);
  EXPECT_EQ(issued.total, 2u);
  // Split at the boundary, each piece clipped to the written range.
  const std::vector<std::pair<Bytes, Bytes>> want = {{kib(48), kib(16)},
                                                     {kib(64), kib(16)}};
  EXPECT_EQ(submitted.ranges, want);
}

TEST(IoNode, PolicyIsAttachedToTheDisk) {
  Simulator sim;
  IoNodeConfig cfg = small_config();
  cfg.policy = PolicyKind::kSimple;
  IoNode node(sim, cfg, 0, 1);
  ASSERT_NE(node.policy(), nullptr);
  node.read(0, kib(64), {});
  sim.schedule_at(sec(120.0), [] {});
  sim.run();
  EXPECT_EQ(node.disk().state(), DiskState::kStandby);
  IoNodeStats s = node.finalize();
  // The disk idled past the policy's timeout and spun down.
  EXPECT_EQ(s.spin_downs, 1);
}

TEST(IoNode, EnergyEqualsItsDisksEnergy) {
  Simulator sim;
  IoNode node(sim, small_config(), 0, 1);
  node.read(0, kib(64), {});
  sim.schedule_at(sec(10.0), [] {});
  sim.run();
  IoNodeStats s = node.finalize();
  EXPECT_NEAR(s.energy_j.value(), 171.0, 2.0);
  EXPECT_EQ(s.energy_j.value(), node.disk().stats().energy_j.value());
  EXPECT_EQ(s.disk_requests, node.disk().stats().requests);
}

}  // namespace
}  // namespace dasched
