// Differential suite: RadixQueue (sim/radix_queue.h) vs the binary-heap
// oracle (binary_heap_queue.h).
//
// Every event key (time, seq) is unique, so the strict total order has
// exactly one pop sequence — any correct priority queue must produce it.
// These tests drive both implementations through identical randomized
// push/pop mixes and compare every popped entry bit-for-bit.  Besides plain
// pushes and pops, the mix peeks at the head and then pushes a time between
// the last pop and the peeked one — what `Simulator::run(until)` does when
// it stops short of the head and the caller schedules more work.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "binary_heap_queue.h"
#include "sim/radix_queue.h"

namespace dasched {
namespace {

QueuedEvent ev(std::int64_t time, std::uint64_t seq) {
  return QueuedEvent{SimTime{time}, seq, static_cast<std::uint32_t>(seq)};
}

/// Drives both queues through the same operation stream: `push_weight`% of
/// steps push an event drawn by `next_time`; of the rest, one in ten peeks
/// at the head and pushes a time in [last pop, head), and the others pop
/// (when non-empty) and compare.  Ends by draining both and comparing the
/// tails.
template <typename NextTime>
void run_differential(std::mt19937& rng, int steps, int push_weight,
                      NextTime next_time) {
  RadixQueue radix;
  BinaryHeapQueue heap;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  std::uniform_int_distribution<int> coin(0, 99);
  for (int i = 0; i < steps; ++i) {
    if (radix.empty() || coin(rng) < push_weight) {
      const QueuedEvent e = ev(next_time(now), seq++);
      radix.push(e);
      heap.push(e);
    } else if (coin(rng) < 10) {
      const std::int64_t head = radix.top().time.count();
      ASSERT_EQ(head, heap.top().time.count()) << "step " << i;
      if (head > now) {
        std::uniform_int_distribution<std::int64_t> below(now, head - 1);
        const QueuedEvent e = ev(below(rng), seq++);
        radix.push(e);
        heap.push(e);
      }
    } else {
      ASSERT_FALSE(heap.empty());
      const QueuedEvent a = radix.top();
      const QueuedEvent b = heap.top();
      ASSERT_EQ(a.time.count(), b.time.count()) << "step " << i;
      ASSERT_EQ(a.seq, b.seq) << "step " << i;
      ASSERT_EQ(a.slot, b.slot) << "step " << i;
      now = a.time.count();  // times are monotone within one drain phase
      radix.pop();
      heap.pop();
    }
  }
  ASSERT_EQ(radix.size(), heap.size());
  while (!heap.empty()) {
    const QueuedEvent a = radix.top();
    const QueuedEvent b = heap.top();
    ASSERT_EQ(a.time.count(), b.time.count());
    ASSERT_EQ(a.seq, b.seq);
    radix.pop();
    heap.pop();
  }
  EXPECT_TRUE(radix.empty());
}

TEST(QueueDifferential, UniformRandomTimes) {
  std::mt19937 rng(1);
  std::uniform_int_distribution<std::int64_t> dt(0, 1'000'000);
  for (int round = 0; round < 4; ++round) {
    run_differential(rng, 20'000, 60,
                     [&](std::int64_t now) { return now + dt(rng); });
  }
}

TEST(QueueDifferential, TimerChainsWithJitter) {
  // The engine's dominant shape: short strictly-increasing strides, so
  // most pushes land in the low buckets just above the base.
  std::mt19937 rng(2);
  std::uniform_int_distribution<std::int64_t> dt(1, 50);
  run_differential(rng, 50'000, 50,
                   [&](std::int64_t now) { return now + dt(rng); });
}

TEST(QueueDifferential, TieHeavyWorkload) {
  // Many events per instant: only the seq tie-break distinguishes them, so
  // a re-base that reordered a tie would show up immediately.
  std::mt19937 rng(3);
  std::uniform_int_distribution<std::int64_t> dt(0, 5);
  run_differential(rng, 50'000, 55,
                   [&](std::int64_t now) { return now + dt(rng); });
}

TEST(QueueDifferential, BimodalNearAndFarFuture) {
  // 80% near events, 20% far-future spikes: entries spread over the high
  // buckets and every re-base relinks a wide bucket.
  std::mt19937 rng(4);
  std::uniform_int_distribution<std::int64_t> near(1, 100);
  std::uniform_int_distribution<std::int64_t> far(100'000, 10'000'000);
  std::uniform_int_distribution<int> mode(0, 4);
  run_differential(rng, 50'000, 65, [&](std::int64_t now) {
    return now + (mode(rng) == 0 ? far(rng) : near(rng));
  });
}

TEST(QueueDifferential, BurstFillThenDrain) {
  // A full fill, then a drain to empty, at several sizes: the drain
  // re-bases through every occupied bucket, and one pop in ten is followed
  // by a push between it and the new head.
  std::mt19937 rng(5);
  std::uniform_int_distribution<std::int64_t> dt(0, 1'000'000);
  std::uniform_int_distribution<int> coin(0, 99);
  for (int size : {1, 3, 64, 65, 257, 2'000, 5'000}) {
    RadixQueue radix;
    BinaryHeapQueue heap;
    std::uint64_t seq = 0;
    for (int i = 0; i < size; ++i) {
      const QueuedEvent e = ev(dt(rng), seq++);
      radix.push(e);
      heap.push(e);
    }
    std::int64_t now = 0;
    while (!heap.empty()) {
      ASSERT_EQ(radix.top().seq, heap.top().seq) << "size " << size;
      ASSERT_EQ(radix.top().time.count(), heap.top().time.count());
      now = radix.top().time.count();
      radix.pop();
      heap.pop();
      if (heap.empty() || coin(rng) >= 10) continue;
      const std::int64_t head = radix.top().time.count();
      if (head > now) {
        std::uniform_int_distribution<std::int64_t> below(now, head - 1);
        const QueuedEvent e = ev(below(rng), seq++);
        radix.push(e);
        heap.push(e);
      }
    }
    EXPECT_TRUE(radix.empty());
  }
}

}  // namespace
}  // namespace dasched
