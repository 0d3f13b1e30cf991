// Differential test of the blocked SCAN queue against a multimap model.
//
// The reference keeps requests in a `std::multimap<Bytes, id>` (which
// iterates equal offsets in insertion order) and applies the elevator's pick
// rules with iterators.  Every take must return the same request and leave
// the same sweep direction as the reference, whatever the block layout
// underneath: duplicate-heavy offsets, runs of one offset longer than a
// block, reversals at both ends, splits, frees and `clear()` reuse.

#include "disk/elevator_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "util/rng.h"

namespace dasched {
namespace {

constexpr std::int64_t kBlock = ElevatorQueue<int>::kBlockEntries;

class ReferenceScan {
 public:
  void push(Bytes offset, int id) { q_.emplace(offset, id); }
  [[nodiscard]] std::size_t size() const { return q_.size(); }
  void clear() { q_.clear(); }

  int take_next(Bytes head, bool& sweep_up) {
    auto it = q_.lower_bound(head);
    if (sweep_up) {
      if (it == q_.end()) {
        sweep_up = false;
        it = std::prev(q_.end());
      }
    } else if (it == q_.begin()) {
      sweep_up = true;
    } else if (it == q_.end() || it->first > head) {
      --it;
    }
    const int id = it->second;
    q_.erase(it);
    return id;
  }

 private:
  std::multimap<Bytes, int> q_;
};

/// Drives both queues in lockstep and checks every pick.
struct Pair {
  ElevatorQueue<int> fast;
  ReferenceScan ref;
  std::vector<Bytes> offset_of;  // by id
  bool fast_up = true;
  bool ref_up = true;
  Bytes head = 0;

  void push(Bytes offset) {
    const int id = static_cast<int>(offset_of.size());
    offset_of.push_back(offset);
    fast.push(offset, id);
    ref.push(offset, id);
    ASSERT_EQ(fast.size(), ref.size());
  }

  /// Takes one request from `from` (the head moves to its offset, as the
  /// disk's arm does) and returns its id.
  int take(Bytes from) {
    const int got = fast.take_next(from, fast_up);
    const int want = ref.take_next(from, ref_up);
    EXPECT_EQ(got, want) << "head " << from.count();
    EXPECT_EQ(fast_up, ref_up) << "head " << from.count();
    EXPECT_EQ(fast.size(), ref.size());
    head = offset_of[static_cast<std::size_t>(want)];
    return want;
  }
  int take() { return take(head); }
};

TEST(ElevatorQueue, RandomPushesWithManyDuplicateOffsets) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    Pair q;
    // Few distinct offsets: most pushes land on an offset already queued.
    const auto distinct = static_cast<std::int64_t>(4 + 30 * seed);
    for (int step = 0; step < 20'000; ++step) {
      const bool push = q.ref.size() == 0 ||
                        (q.ref.size() < 1'500 && rng.next_double() < 0.55);
      if (push) {
        q.push(rng.next_int(0, distinct - 1) * 4'096);
      } else if (rng.next_double() < 0.1) {
        // An arbitrary head, on or between queued offsets.
        q.take(rng.next_int(0, distinct * 4'096));
      } else {
        q.take();
      }
      if (HasFailure()) return;
    }
    while (q.ref.size() > 0 && !HasFailure()) q.take();
    EXPECT_TRUE(q.fast.empty());
  }
}

TEST(ElevatorQueue, RunOfOneOffsetLongerThanABlockStaysFifo) {
  Pair q;
  q.push(100);
  for (std::int64_t i = 0; i < 3 * kBlock + 5; ++i) q.push(500);
  q.push(900);
  for (std::int64_t i = 0; i < kBlock; ++i) q.push(500);
  // Sweeping up from the run's offset takes the run oldest first, across
  // every block it spans.
  int prev = q.take(500);
  for (std::int64_t i = 1; i < 4 * kBlock + 5; ++i) {
    const int id = q.take(500);
    EXPECT_EQ(q.offset_of[static_cast<std::size_t>(id)], 500);
    EXPECT_LT(prev, id);
    prev = id;
  }
  EXPECT_EQ(q.offset_of[static_cast<std::size_t>(q.take())], 900);
  EXPECT_TRUE(q.fast_up);
  EXPECT_EQ(q.take(), 0);  // past the top: reverse to the last request
  EXPECT_FALSE(q.fast_up);
}

TEST(ElevatorQueue, SweepingDownTakesTheNewestOfTheOffsetBelow) {
  Pair q;
  const int at200 = static_cast<int>(2 * kBlock + 3);
  const int at700 = static_cast<int>(kBlock);
  for (int i = 0; i < at200; ++i) q.push(200);  // ids [0, at200)
  for (int i = 0; i < at700; ++i) q.push(700);  // ids [at200, at200 + at700)
  q.push(50);                                   // id at200 + at700
  // Sweeping up past the top, the reversal takes the newest request at the
  // largest offset and turns the sweep down.
  EXPECT_EQ(q.take(800), at200 + at700 - 1);
  EXPECT_FALSE(q.fast_up);
  // Above every remaining 700 request, the newest goes first.
  for (int id = at200 + at700 - 2; id > at200; --id) EXPECT_EQ(q.take(701), id);
  // A head exactly on queued requests takes the oldest of them.
  EXPECT_EQ(q.take(700), at200);
  EXPECT_EQ(q.take(200), 0);
  // Between offsets: the newest request at the offset below.
  EXPECT_EQ(q.take(300), at200 - 1);
  // Below every request: the first is taken and the sweep turns up.
  EXPECT_EQ(q.take(10), at200 + at700);
  EXPECT_TRUE(q.fast_up);
  while (q.ref.size() > 0 && !HasFailure()) q.take();
}

TEST(ElevatorQueue, BothReversalPointsWithAScatteredBacklog) {
  Rng rng(42);
  Pair q;
  for (int i = 0; i < 1'000; ++i) q.push(rng.next_int(0, 49) * 1'000);
  int turned_down = 0;
  int turned_up = 0;
  while (q.ref.size() > 0 && !HasFailure()) {
    const bool was_up = q.fast_up;
    q.take();
    // Arrivals land on both sides of the head, so the sweep keeps finding
    // work behind it and turns at both ends.
    if (q.offset_of.size() < 10'000) q.push(rng.next_int(0, 49) * 1'000);
    if (q.fast_up == was_up) continue;
    ++(was_up ? turned_down : turned_up);
  }
  EXPECT_GE(turned_down, 3);
  EXPECT_GE(turned_up, 3);
}

TEST(ElevatorQueue, SplitsAndFreesAcrossRepeatedFillAndDrain) {
  Rng rng(7);
  Pair q;
  for (int round = 0; round < 5; ++round) {
    // Ascending, descending and random fills split blocks at different
    // points; each drain frees every block.
    const int n = 300 + 250 * round;
    for (int i = 0; i < n; ++i) {
      std::int64_t off = 0;
      switch (round % 3) {
        case 0: off = i; break;
        case 1: off = n - i; break;
        default: off = rng.next_int(0, 399); break;
      }
      q.push(off * 512);
    }
    ASSERT_GT(static_cast<std::int64_t>(q.fast.size()), 4 * kBlock);
    while (q.ref.size() > 0 && !HasFailure()) q.take();
    EXPECT_TRUE(q.fast.empty());
  }
}

TEST(ElevatorQueue, ClearedQueuePicksExactlyLikeAFreshOne) {
  const auto script = [](Pair& q, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<int> picks;
    for (int step = 0; step < 4'000; ++step) {
      if (q.ref.size() == 0 || rng.next_double() < 0.6) {
        q.push(rng.next_int(0, 63) * 8'192);
      } else {
        picks.push_back(q.take());
      }
    }
    while (q.ref.size() > 0) picks.push_back(q.take());
    return picks;
  };
  Pair fresh;
  const std::vector<int> want = script(fresh, 99);

  // A used queue left with a backlog of several blocks, then cleared.
  Pair used;
  (void)script(used, 5);
  for (int i = 0; i < 500; ++i) used.push((i * 7'919) % 100'000);
  for (int i = 0; i < 50; ++i) (void)used.take();
  used.fast.clear();
  used.ref.clear();
  EXPECT_TRUE(used.fast.empty());
  used.offset_of.clear();
  used.fast_up = used.ref_up = true;
  used.head = 0;
  EXPECT_EQ(script(used, 99), want);
}

}  // namespace
}  // namespace dasched
