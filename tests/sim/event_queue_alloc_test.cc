// Zero-allocation regression test for the classic event engine.
//
// Mirrors tests/storage/alloc_count_test.cc: global operator new/delete are
// replaced with counting versions gated by a flag.  `reserve_events` is
// given a bound on concurrently outstanding events — exactly what the
// driver derives from the topology (driver/experiment.cc
// default_event_reserve) — after which EVERY schedule/run cycle must be
// allocation-free: the pooled records, the free list and the radix queue's
// node arena are all pre-sized.  There is no warm-up phase: the reserve
// itself is the warm-up, so a single allocation from the very first event
// fails here.
//
// The workload spreads entries over the queue's buckets: timer chains (low
// buckets), a mid-range band and far-future spikes (high buckets, relinked
// by every re-base), plus cancellations to exercise slot recycling.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

#include "sim/simulator.h"

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
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace dasched {
namespace {

/// Deterministic LCG; <random> engines may allocate nothing, but a plain
/// multiply keeps the measured region trivially allocation-free.
struct Lcg {
  std::uint64_t s = 0x9e3779b97f4a7c15ULL;
  std::uint64_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  }
};

TEST(EventQueueAlloc, LadderEngineIsAllocFreeAfterReserve) {
  Simulator sim;
  constexpr std::size_t kReserve = 4'096;
  sim.reserve_events(kReserve);

  Lcg rng;
  std::int64_t fired = 0;
  EventHandle last_handle;
  int cancelled = 0;

  // 64 self-rescheduling chains; each firing re-arms with a mixed horizon
  // (short stride / mid band / far spike) and occasionally schedules a
  // throwaway event that is immediately cancelled.
  std::function<void(int)> chain = [&](int id) {
    ++fired;
    if (fired >= 40'000) return;
    const std::uint64_t r = rng.next();
    const std::int64_t horizon =
        r % 10 < 7 ? 1 + static_cast<std::int64_t>(r % 97)
                   : (r % 10 < 9 ? 1'000 + static_cast<std::int64_t>(r % 9'001)
                                 : 500'000 + static_cast<std::int64_t>(
                                                 r % 1'000'000));
    sim.schedule_after(SimTime{horizon}, [&chain, id] { chain(id); });
    if (r % 16 == 0) {
      last_handle = sim.schedule_after(SimTime{static_cast<std::int64_t>(
                                           1 + r % 50'000)},
                                       [] {});
      last_handle.cancel();
      ++cancelled;
    }
  };
  // Everything from here on is measured — the reserve is the only warm-up
  // (the std::function holding `chain` above is test scaffolding, not
  // engine state, so it sits outside the counted region).
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);

  for (int id = 0; id < 64; ++id) {
    sim.schedule_at(SimTime{id}, [&chain, id] { chain(id); });
  }
  // A dense far-future burst on top of the chains: thousands of
  // simultaneous entries in the high buckets, relinked down by the re-bases
  // — all inside the pre-reserve.
  for (int i = 0; i < 3'000; ++i) {
    const std::uint64_t r = rng.next();
    sim.schedule_at(SimTime{200'000 + static_cast<std::int64_t>(r % 800'000)},
                    [] {});
  }
  sim.run();

  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_GE(fired, 40'000);
  EXPECT_GT(cancelled, 0);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "event engine allocated after reserve_events(" << kReserve << ")";
}

}  // namespace
}  // namespace dasched
