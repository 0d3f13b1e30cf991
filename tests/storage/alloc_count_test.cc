// Zero-allocation regression test for the storage data path.
//
// Global operator new/delete are replaced with counting versions gated by a
// flag.  After a warm-up pass grows every pool and scratch buffer to its
// high-water mark (simulator event pool, join pools, elevator queues, the
// flat LRU's fixed tables), re-running the same request
// pattern must perform ZERO heap allocations — for steady-state cached
// reads, for the cache-miss + prefetch path, and for a disk whose
// background backlog spans several elevator-index blocks and is refilled
// after draining, with or without a completion callback on every request.
// A new allocation site in
// `StorageSystem::route`, `IoNode::read`, `StorageCache` or
// `Disk` turns into a test failure here, not a silent perf regression.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "disk/disk.h"
#include "storage/storage_system.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void note_allocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t n) {
  note_allocation();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  note_allocation();
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? align : n) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replaceable global allocation functions — every variant the runtime may
// pick, so no allocation slips past the counter.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(n == 0 ? 1 : n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dasched {
namespace {

/// Issues one identical round of demand reads and runs the sim to quiescence.
std::int64_t run_read_round(Simulator& sim, StorageSystem& storage, FileId f,
                            int blocks) {
  std::int64_t completed = 0;
  for (int i = 0; i < blocks; ++i) {
    storage.read(f, i * kib(64), kib(64),
                 [&completed] { ++completed; });
  }
  sim.run();
  return completed;
}

TEST(AllocCount, SteadyStateCachedReadsAllocateNothing) {
  Simulator sim;
  StorageConfig cfg;  // 64 MiB cache per node: the whole file stays resident
  cfg.node.policy = PolicyKind::kNone;
  StorageSystem storage(sim, cfg);
  const FileId f = storage.create_file("hot", mib(32));
  constexpr int kBlocks = 512;

  // Warm-up: fill the cache (misses), then one all-hit round so every pool
  // reaches the high-water mark of the counted round.
  ASSERT_EQ(run_read_round(sim, storage, f, kBlocks), kBlocks);
  ASSERT_EQ(run_read_round(sim, storage, f, kBlocks), kBlocks);

  g_allocations.store(0);
  g_counting.store(true);
  const std::int64_t completed = run_read_round(sim, storage, f, kBlocks);
  g_counting.store(false);

  EXPECT_EQ(completed, kBlocks);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state cached reads hit the heap";
  // Sanity: the cache really served the counted round.
  EXPECT_GE(storage.finalize().cache_hit_rate, 0.6);
}

TEST(AllocCount, SteadyStateCacheMissPathAllocatesNothing) {
  Simulator sim;
  StorageConfig cfg;
  cfg.node.policy = PolicyKind::kNone;
  cfg.node.cache_capacity = mib(1);  // 16 blocks: sequential scans thrash
  StorageSystem storage(sim, cfg);
  const FileId f = storage.create_file("cold", mib(64));
  constexpr int kBlocks = 1'024;

  // Two warm-up scans: the first fills pools on the pure-miss path, the
  // second repeats the steady-state miss + prefetch-hit mixture of the
  // counted scan.
  ASSERT_EQ(run_read_round(sim, storage, f, kBlocks), kBlocks);
  ASSERT_EQ(run_read_round(sim, storage, f, kBlocks), kBlocks);

  g_allocations.store(0);
  g_counting.store(true);
  const std::int64_t completed = run_read_round(sim, storage, f, kBlocks);
  g_counting.store(false);

  EXPECT_EQ(completed, kBlocks);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state cache-miss reads hit the heap";
  const StorageStats stats = storage.finalize();
  // Sanity: the counted round really exercised the disks.
  EXPECT_GT(stats.disk_requests, kBlocks);
}

/// Submits one identical round of background requests at a single disk and
/// runs the sim until the backlog drains; returns the peak queue depth.
std::size_t run_background_round(Simulator& sim, Disk& disk,
                                 std::int64_t& completed) {
  constexpr int kRequests = 1'000;
  for (int i = 0; i < kRequests; ++i) {
    // 512 distinct offsets in a scattered order: many requests share one.
    const Bytes offset = kib(64) * ((i * 7'919) % 512);
    disk.submit(DiskRequest{offset, kib(64), /*is_write=*/false,
                            /*background=*/true,
                            EventFn([&completed] { ++completed; })});
  }
  const std::size_t depth = disk.queue_depth();
  sim.run();
  return depth;
}

TEST(AllocCount, RefilledBackgroundBacklogAllocatesNothing) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_defaults());
  std::int64_t completed = 0;

  // Warm-up: the backlog spans many index blocks, which split as it fills
  // and return to the pool as it drains.
  const std::size_t depth = run_background_round(sim, disk, completed);
  // Every payload type blocks its index the same way.
  ASSERT_GT(depth, 4u * ElevatorQueue<int>::kBlockEntries);
  ASSERT_TRUE(disk.queue_empty());

  g_allocations.store(0);
  g_counting.store(true);
  const std::size_t refill_depth = run_background_round(sim, disk, completed);
  g_counting.store(false);

  EXPECT_EQ(refill_depth, depth);
  EXPECT_EQ(completed, 2'000);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "refilling a drained background backlog hit the heap";
}

/// One round of demand and background requests at a single disk, only every
/// third carrying a completion callback, run until the backlog drains;
/// returns the peak queue depth.
std::size_t run_mixed_round(Simulator& sim, Disk& disk,
                            std::int64_t& completed) {
  constexpr int kRequests = 1'000;
  for (int i = 0; i < kRequests; ++i) {
    const Bytes offset = kib(64) * ((i * 7'919) % 512);
    EventFn on_complete;
    if (i % 3 == 0) on_complete = EventFn([&completed] { ++completed; });
    disk.submit(DiskRequest{offset, kib(64), /*is_write=*/i % 5 == 0,
                            /*background=*/i % 4 != 0,
                            std::move(on_complete)});
  }
  const std::size_t depth = disk.queue_depth();
  sim.run();
  return depth;
}

TEST(AllocCount, RefilledMixedCallbackBacklogAllocatesNothing) {
  Simulator sim;
  Disk disk(sim, DiskParams::paper_defaults());
  std::int64_t completed = 0;

  // Warm-up grows the index blocks of both queues and the callback slab.
  const std::size_t depth = run_mixed_round(sim, disk, completed);
  ASSERT_GT(depth, 4u * ElevatorQueue<int>::kBlockEntries);
  ASSERT_TRUE(disk.queue_empty());
  ASSERT_EQ(completed, 334);

  g_allocations.store(0);
  g_counting.store(true);
  const std::size_t refill_depth = run_mixed_round(sim, disk, completed);
  g_counting.store(false);

  EXPECT_EQ(refill_depth, depth);
  EXPECT_EQ(completed, 668);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "refilling a backlog mixing requests with and without callbacks "
         "hit the heap";
}

}  // namespace
}  // namespace dasched
