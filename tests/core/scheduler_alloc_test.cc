// Zero-allocation regression test for the scheduling fast path.
//
// Global operator new/delete are replaced with counting versions gated by a
// flag (same harness as tests/storage/alloc_count_test.cc).  A warm-up
// `schedule_into` grows every scratch buffer — candidate slot lists, order
// index, class intern table, reuse and θ tables, per-node class lists,
// per-process occupancy rows, the output vector — to its high-water mark;
// after `reset()`, re-scheduling the same accesses must perform ZERO heap
// allocations, at 8 nodes and at 96 (where a signature spills past one
// word: a result row holds no signature, so none is copied).
// Covers the θ-constrained path, the θ = 0 path and a θ = 1 batch that
// mostly takes the E_t fallback, so a new allocation site in
// `AccessScheduler::schedule_into` or anything it calls fails here instead
// of quietly costing throughput.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/scheduler.h"
#include "util/rng.h"

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

std::vector<AccessRecord> random_accesses(int count, int nodes, Slot slots,
                                          int processes, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<AccessRecord> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    AccessRecord rec;
    rec.id = i;
    rec.process = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(processes)));
    rec.end =
        static_cast<Slot>(rng.next_below(static_cast<std::uint64_t>(slots)));
    rec.begin = rec.end - static_cast<Slot>(rng.next_below(
                              static_cast<std::uint64_t>(rec.end) + 1));
    rec.original = rec.end;
    rec.length = std::min<int>(1 + static_cast<int>(rng.next_below(4)),
                               static_cast<int>(rec.slack_length()));
    rec.sig = Signature(nodes);
    rec.sig.set(static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(nodes))));
    rec.sig.set(static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(nodes))));
    out.push_back(std::move(rec));
  }
  return out;
}

std::uint64_t counted_round(AccessScheduler& sched,
                            const std::vector<AccessRecord>& accesses,
                            std::vector<ScheduledAccess>& out) {
  sched.reset();
  g_allocations.store(0);
  g_counting.store(true);
  sched.schedule_into(accesses, out);
  g_counting.store(false);
  return g_allocations.load();
}

TEST(SchedulerAllocCount, ThetaPathSteadyStateAllocatesNothing) {
  const auto accesses = random_accesses(1'000, 8, 1'024, 32, 42);
  ScheduleOptions opts;  // θ = 4 default: sorted-candidate path
  AccessScheduler sched(8, 1'024, opts);
  std::vector<ScheduledAccess> out;

  sched.schedule_into(accesses, out);  // warm-up: grow all scratch buffers

  const std::uint64_t allocs = counted_round(sched, accesses, out);
  EXPECT_EQ(allocs, 0u) << "steady-state schedule_into hit the heap";
  EXPECT_EQ(sched.stats().scheduled, 1'000);
}

TEST(SchedulerAllocCount, FirstBestPathSteadyStateAllocatesNothing) {
  const auto accesses = random_accesses(1'000, 8, 1'024, 32, 7);
  ScheduleOptions opts;
  opts.theta = 0;  // plain first-best selection, no θ bookkeeping
  AccessScheduler sched(8, 1'024, opts);
  std::vector<ScheduledAccess> out;

  sched.schedule_into(accesses, out);

  const std::uint64_t allocs = counted_round(sched, accesses, out);
  EXPECT_EQ(allocs, 0u) << "steady-state schedule_into hit the heap";
  EXPECT_EQ(sched.stats().scheduled, 1'000);
}

TEST(SchedulerAllocCount, RepeatedResetRoundsStayAllocationFree) {
  const auto accesses = random_accesses(500, 8, 512, 16, 3);
  AccessScheduler sched(8, 512, ScheduleOptions{});
  std::vector<ScheduledAccess> out;
  sched.schedule_into(accesses, out);

  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(counted_round(sched, accesses, out), 0u) << "round " << round;
  }
}

// Above 64 I/O nodes a Signature keeps its high words in a heap vector.  A
// result row is a placement with no signature, and the class tables and
// intern table keep theirs across rounds, so nothing allocates.
TEST(SchedulerAllocCount, WideClusterSteadyStateAllocatesNothing) {
  const auto accesses = random_accesses(1'000, 96, 1'024, 32, 5);
  AccessScheduler sched(96, 1'024, ScheduleOptions{});
  std::vector<ScheduledAccess> out;
  sched.schedule_into(accesses, out);

  EXPECT_EQ(counted_round(sched, accesses, out), 0u);
  EXPECT_EQ(sched.stats().scheduled, 1'000);
}

// θ = 1 over 96 nodes, 1,000 accesses on 128 slots, every signature one of
// nodes 62–65 (both signature words): most accesses take the E_t fallback,
// and every placement re-marks θ rows.  The θ rows, the slot gather and the
// stale lists add no allocation.
TEST(SchedulerAllocCount, ThetaFallbackHeavyWideClusterAllocatesNothing) {
  auto accesses = random_accesses(1'000, 96, 128, 32, 11);
  Rng rng(12);
  for (AccessRecord& rec : accesses) {
    rec.sig.clear();
    rec.sig.set(62 + static_cast<int>(rng.next_below(4)));
  }
  ScheduleOptions opts;
  opts.theta = 1;
  AccessScheduler sched(96, 128, opts);
  std::vector<ScheduledAccess> out;
  sched.schedule_into(accesses, out);

  EXPECT_EQ(counted_round(sched, accesses, out), 0u);
  EXPECT_EQ(sched.stats().scheduled, 1'000);
  EXPECT_GT(sched.stats().theta_fallbacks, 500);
}

}  // namespace
}  // namespace dasched
