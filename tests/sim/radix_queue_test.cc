// Unit tests for the monotone radix heap (sim/radix_queue.h, DESIGN.md §15).
//
// The differential suite (tests/sim/queue_differential_test.cc) proves the
// queue pops the same sequence as the reference heap over random streams;
// these tests pin its transitions one by one: a re-base that relinks a
// bucket of several times and ties, a push into a drained queue below the
// last pop, a push between a peek and the head, and a same-time flood.
#include "sim/radix_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/simulator.h"

namespace dasched {
namespace {

QueuedEvent ev(std::int64_t time, std::uint64_t seq) {
  return QueuedEvent{SimTime{time}, seq, 0};
}

/// Pops everything, checking strict (time, seq) order on the way.
std::vector<QueuedEvent> drain_checked(RadixQueue& q) {
  std::vector<QueuedEvent> out;
  while (!q.empty()) {
    out.push_back(q.top());
    q.pop();
    if (out.size() >= 2) {
      EXPECT_TRUE(event_before(out[out.size() - 2], out.back()))
          << "pop order violated at index " << out.size() - 1;
    }
  }
  return out;
}

std::vector<std::uint64_t> seqs_of(const std::vector<QueuedEvent>& events) {
  std::vector<std::uint64_t> out;
  for (const QueuedEvent& e : events) out.push_back(e.seq);
  return out;
}

TEST(RadixQueue, PopsStrictTimeSeqOrder) {
  RadixQueue q;
  std::uint64_t seq = 0;
  for (std::int64_t t : {50, 10, 30, 10, 90, 30, 10}) q.push(ev(t, seq++));
  const std::vector<QueuedEvent> out = drain_checked(q);
  // Ties (three events at t=10, two at t=30) resolve by scheduling order.
  EXPECT_EQ(seqs_of(out), (std::vector<std::uint64_t>{1, 3, 6, 2, 5, 0, 4}));
}

TEST(RadixQueue, RebaseRelinksABucketOfSeveralKeysAndTies) {
  // With the base at 0, times 64..127 all share bucket 7.  Popping the 0
  // empties bucket 0, so the next top() re-bases on that bucket's minimum
  // (70) and relinks its eight entries into the buckets below it; the ties
  // at 70 and 100 must come out in seq order, as must a push that joins a
  // tie after the re-base.
  RadixQueue q;
  std::uint64_t seq = 0;
  q.push(ev(0, seq++));
  for (std::int64_t t : {100, 70, 127, 100, 70, 64 + 36, 71, 70}) {
    q.push(ev(t, seq++));
  }
  EXPECT_EQ(q.top().time, 0);
  q.pop();
  EXPECT_EQ(q.top().time, 70);  // the re-base
  EXPECT_EQ(q.top().seq, 2u);
  q.push(ev(70, seq++));  // joins the head's tie, behind it
  q.push(ev(100, seq++));
  const std::vector<QueuedEvent> out = drain_checked(q);
  EXPECT_EQ(seqs_of(out),
            (std::vector<std::uint64_t>{2, 5, 8, 9, 7, 1, 4, 6, 10, 3}));
}

TEST(RadixQueue, PushIntoAnEmptyQueueBelowTheLastPop) {
  // Popping the 100 left the base there; an earlier push into the drained
  // queue moves the base down to it.
  RadixQueue q;
  q.push(ev(100, 0));
  EXPECT_EQ(q.top().time, 100);
  q.pop();
  q.push(ev(50, 1));
  q.push(ev(60, 2));
  EXPECT_EQ(seqs_of(drain_checked(q)), (std::vector<std::uint64_t>{1, 2}));

  // The same through the simulator: step() discards a cancelled event at
  // 100 without moving the clock off 0, and then an event at 50 fires.
  Simulator sim;
  sim.schedule_at(100, [] {}).cancel();
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.now(), 0);
  int fired = 0;
  sim.schedule_at(50, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
}

TEST(RadixQueue, PushBetweenAPeekAndTheHead) {
  // top() re-bases on 100 without popping; pushes at 60 and 61 then land
  // below the base, so every entry is re-bucketed against the lower time.
  RadixQueue q;
  std::uint64_t seq = 0;
  for (std::int64_t t : {10, 100, 1'000}) q.push(ev(t, seq++));
  EXPECT_EQ(q.top().time, 10);
  q.pop();
  EXPECT_EQ(q.top().time, 100);
  for (std::int64_t t : {61, 60, 60}) q.push(ev(t, seq++));
  EXPECT_EQ(seqs_of(drain_checked(q)),
            (std::vector<std::uint64_t>{4, 5, 3, 1, 2}));
}

TEST(RadixQueue, RunUntilThenAnEarlierScheduleFiresInOrder) {
  // run(50) peeks at the event at 100 and stops with the clock at 50; what
  // is scheduled next at 60 and 61 must fire before it.
  Simulator sim;
  std::vector<std::int64_t> fired;
  const auto at = [&](std::int64_t t) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now().count()); });
  };
  for (std::int64_t t : {10, 100, 1'000}) at(t);
  sim.run(50);
  EXPECT_EQ(sim.now(), 50);
  for (std::int64_t t : {61, 60, 60}) at(t);
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 60, 60, 61, 100, 1'000}));
}

TEST(RadixQueue, SameTimeFloodPopsInSeqOrder) {
  // 20,000 entries at one time, with an earlier and a later neighbour, and
  // half of the tie pushed after the re-base onto it.
  RadixQueue q;
  std::uint64_t seq = 0;
  q.push(ev(1, seq++));
  for (int i = 0; i < 10'000; ++i) q.push(ev(42, seq++));
  q.push(ev(43, seq++));
  EXPECT_EQ(q.top().time, 1);
  q.pop();
  EXPECT_EQ(q.top().time, 42);
  for (int i = 0; i < 10'000; ++i) q.push(ev(42, seq++));
  const std::vector<QueuedEvent> out = drain_checked(q);
  ASSERT_EQ(out.size(), 20'001u);
  for (std::size_t i = 0; i < 10'000; ++i) EXPECT_EQ(out[i].seq, i + 1);
  for (std::size_t i = 10'000; i < 20'000; ++i) {
    EXPECT_EQ(out[i].seq, i + 2);
  }
  EXPECT_EQ(out.back().time, 43);
}

}  // namespace
}  // namespace dasched
