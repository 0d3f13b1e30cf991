#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/scheduling_table.h"
#include "util/rng.h"

namespace dasched {
namespace {

AccessRecord make_access(int id, int process, Slot begin, Slot end,
                         const Signature& sig, int length = 1) {
  AccessRecord rec;
  rec.id = id;
  rec.process = process;
  rec.begin = begin;
  rec.end = end;
  rec.length = length;
  rec.sig = sig;
  rec.original = end;
  return rec;
}

TEST(AccessScheduler, SingleAccessPicksSomeSlotInSlack) {
  AccessScheduler sched(8, 100, {});
  auto result = sched.schedule({make_access(0, 0, 10, 20,
                                            Signature::from_nodes(8, {0}))});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_GE(result[0].slot, 10);
  EXPECT_LE(result[0].slot, 20);
  EXPECT_FALSE(result[0].forced);
}

TEST(AccessScheduler, SameSignatureAccessesCluster) {
  // Two accesses with identical signatures and overlapping slack should land
  // within delta of each other (vertical reuse).
  ScheduleOptions opts;
  opts.delta = 5;
  opts.theta = 0;
  AccessScheduler sched(8, 200, opts);
  const Signature sig = Signature::from_nodes(8, {3});
  auto result = sched.schedule({
      make_access(0, 0, 0, 50, sig),
      make_access(1, 1, 0, 199, sig),
  });
  EXPECT_LE(std::abs(result[0].slot - result[1].slot), 5);
}

TEST(AccessScheduler, DisjointSignaturesAvoidEachOther) {
  ScheduleOptions opts;
  opts.delta = 10;
  opts.theta = 0;
  AccessScheduler sched(8, 400, opts);
  const Signature a = Signature::from_nodes(8, {0});
  const Signature b = Signature::from_nodes(8, {4});
  auto result = sched.schedule({
      make_access(0, 0, 100, 100, a),  // pinned
      make_access(1, 1, 0, 399, b),    // free to go anywhere
  });
  // The disjoint access should not land inside the other's reuse range.
  EXPECT_GT(std::abs(result[1].slot - 100), 10);
}

TEST(AccessScheduler, ShortestSlackScheduledFirstGetsItsBestSlot) {
  // A pinned access (slack 1) must keep its only slot even if a flexible
  // access would also like it.
  AccessScheduler sched(8, 100, {});
  const Signature sig = Signature::from_nodes(8, {0});
  auto result = sched.schedule({
      make_access(0, 0, 50, 50, sig),
      make_access(1, 0, 0, 99, sig),  // same process: cannot share slot 50
  });
  EXPECT_EQ(result[0].slot, 50);
  EXPECT_NE(result[1].slot, 50);
}

TEST(AccessScheduler, OneAccessPerProcessPerSlot) {
  AccessScheduler sched(8, 10, ScheduleOptions{.delta = 2, .theta = 0});
  std::vector<AccessRecord> accesses;
  const Signature sig = Signature::from_nodes(8, {0});
  for (int i = 0; i < 10; ++i) {
    accesses.push_back(make_access(i, /*process=*/0, 0, 9, sig));
  }
  auto result = sched.schedule(std::move(accesses));
  std::set<Slot> used;
  for (const auto& r : result) {
    if (r.forced) continue;
    EXPECT_TRUE(used.insert(r.slot).second)
        << "two accesses of one process share slot " << r.slot;
  }
}

TEST(AccessScheduler, DifferentProcessesMayShareASlot) {
  AccessScheduler sched(8, 4, ScheduleOptions{.delta = 1, .theta = 0});
  const Signature sig = Signature::from_nodes(8, {0});
  auto result = sched.schedule({
      make_access(0, 0, 2, 2, sig),
      make_access(1, 1, 2, 2, sig),
  });
  EXPECT_EQ(result[0].slot, 2);
  EXPECT_EQ(result[1].slot, 2);
}

TEST(AccessScheduler, FullyOccupiedSlackForcesOriginalPoint) {
  AccessScheduler sched(8, 3, ScheduleOptions{.delta = 1, .theta = 0});
  const Signature sig = Signature::from_nodes(8, {0});
  std::vector<AccessRecord> accesses;
  for (int i = 0; i < 4; ++i) {
    auto rec = make_access(i, 0, 0, 2, sig);
    rec.original = 2;
    accesses.push_back(rec);
  }
  auto result = sched.schedule(std::move(accesses));
  int forced = 0;
  for (const auto& r : result) {
    if (r.forced) {
      ++forced;
      EXPECT_EQ(r.slot, 2);
    }
  }
  EXPECT_EQ(forced, 1);
  EXPECT_EQ(sched.stats().forced, 1);
}

TEST(AccessScheduler, ExtendedAccessesRespectLatestStart) {
  AccessScheduler sched(8, 100, {});
  const Signature sig = Signature::from_nodes(8, {0});
  auto result =
      sched.schedule({make_access(0, 0, 10, 20, sig, /*length=*/5)});
  EXPECT_GE(result[0].slot, 10);
  EXPECT_LE(result[0].slot, 16);  // 16 + 5 - 1 = 20
}

TEST(AccessScheduler, ExtendedAccessOccupiesAllItsSlots) {
  AccessScheduler sched(8, 30, ScheduleOptions{.delta = 1, .theta = 0});
  const Signature sig = Signature::from_nodes(8, {2});
  AccessRecord big = make_access(0, 0, 0, 29, sig, /*length=*/10);
  sched.place(big, 5);
  for (Slot s = 5; s < 15; ++s) {
    EXPECT_FALSE(sched.available(0, s, 1)) << "slot " << s;
    EXPECT_TRUE(sched.group_signature(s).test(2));
  }
  EXPECT_TRUE(sched.available(0, 4, 1));
  EXPECT_TRUE(sched.available(0, 15, 1));
}

TEST(AccessScheduler, ThetaConstraintSpreadsHotNode) {
  ScheduleOptions opts;
  opts.delta = 2;
  opts.theta = 1;
  AccessScheduler sched(4, 50, opts);
  const Signature sig = Signature::from_nodes(4, {0});
  std::vector<AccessRecord> accesses;
  for (int p = 0; p < 4; ++p) {
    accesses.push_back(make_access(p, p, 0, 49, sig));
  }
  auto result = sched.schedule(std::move(accesses));
  std::set<Slot> slots;
  for (const auto& r : result) {
    EXPECT_TRUE(slots.insert(r.slot).second)
        << "theta=1 must keep node-0 accesses in distinct slots";
  }
  EXPECT_EQ(sched.stats().theta_fallbacks, 0);
}

TEST(AccessScheduler, ThetaFallbackMinimizesAverageExcess) {
  // Five same-node accesses but only 2 slots: theta = 2 cannot hold them
  // all, so the E_t fallback must fire at least once.
  ScheduleOptions opts;
  opts.delta = 1;
  opts.theta = 2;
  AccessScheduler sched(4, 2, opts);
  const Signature sig = Signature::from_nodes(4, {0});
  std::vector<AccessRecord> accesses;
  for (int p = 0; p < 5; ++p) {
    accesses.push_back(make_access(p, p, 0, 1, sig));
  }
  auto result = sched.schedule(std::move(accesses));
  EXPECT_EQ(result.size(), 5u);
  EXPECT_GE(sched.stats().theta_fallbacks, 1);
}

TEST(AccessScheduler, CandidateSamplingStillCoversOriginalPoint) {
  ScheduleOptions opts;
  opts.max_candidates = 8;
  AccessScheduler sched(8, 10'000, opts);
  const Signature sig = Signature::from_nodes(8, {0});
  AccessRecord rec = make_access(0, 0, 0, 9'999, sig);
  rec.original = 9'999;
  auto result = sched.schedule({rec});
  EXPECT_GE(result[0].slot, 0);
  EXPECT_LE(result[0].slot, 9'999);
}

TEST(AccessScheduler, MeanAdvanceReflectsHoisting) {
  AccessScheduler sched(8, 100, {});
  const Signature sig = Signature::from_nodes(8, {0});
  AccessRecord rec = make_access(0, 0, 0, 99, sig);
  rec.original = 99;
  sched.schedule({rec});
  EXPECT_GT(sched.stats().mean_advance_slots, 0.0);
}

TEST(AccessScheduler, ResultsFollowBatchOrder) {
  // Row i is the placement of accesses[i], whatever the ids and the order
  // the accesses were placed in (here id 0, slack length 1, goes first).
  AccessScheduler sched(8, 50, {});
  const Signature sig = Signature::from_nodes(8, {0});
  const std::vector<AccessRecord> batch = {
      make_access(2, 0, 0, 40, sig),
      make_access(0, 1, 5, 5, sig),
      make_access(1, 2, 0, 20, sig),
  };
  auto result = sched.schedule(batch);
  ASSERT_EQ(result.size(), 3u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(result[i].id, batch[i].id) << "row " << i;
    EXPECT_EQ(result[i].process, batch[i].process) << "row " << i;
  }
  EXPECT_EQ(result[1].slot, 5);

  // schedule_into resizes a reused vector to the batch.
  std::vector<ScheduledAccess> out(7);
  sched.reset();
  sched.schedule_into(batch, out);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out[i].id, batch[i].id) << "row " << i;
    EXPECT_EQ(out[i].slot, result[i].slot) << "row " << i;
  }
}

TEST(AccessScheduler, ForcedCollisionSharesASlotOrderedById) {
  // Two accesses of one process pinned to the same one-slot slack: the
  // first placed (lower id) takes slot 5, the other is forced there too.
  // The batch lists the higher id first, so the table must order the two
  // rows of slot 5 by id, not by row.
  AccessScheduler sched(8, 20, {});
  const Signature sig = Signature::from_nodes(8, {1});
  auto result = sched.schedule({
      make_access(1, 0, 5, 5, sig),
      make_access(0, 0, 5, 5, sig),
  });
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 1);
  EXPECT_TRUE(result[0].forced);
  EXPECT_EQ(result[1].id, 0);
  EXPECT_FALSE(result[1].forced);
  EXPECT_EQ(result[0].slot, 5);
  EXPECT_EQ(result[1].slot, 5);

  const SchedulingTable table(result);
  const auto rows = table.entries(0);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 1u);  // access #0
  EXPECT_EQ(rows[1], 0u);  // access #1
}

TEST(AccessScheduler, DeterministicAcrossRuns) {
  auto run = [] {
    AccessScheduler sched(8, 200, {});
    Rng rng(123);
    std::vector<AccessRecord> accesses;
    for (int i = 0; i < 50; ++i) {
      const Slot end = static_cast<Slot>(rng.next_below(200));
      const Slot begin = end - static_cast<Slot>(rng.next_below(
                                   static_cast<std::uint64_t>(end) + 1));
      accesses.push_back(make_access(
          i, i % 4, begin, end,
          Signature::from_nodes(8, {static_cast<int>(rng.next_below(8))})));
    }
    std::vector<Slot> slots;
    for (const auto& r : sched.schedule(std::move(accesses))) {
      slots.push_back(r.slot);
    }
    return slots;
  };
  EXPECT_EQ(run(), run());
}

// Property sweep: random workloads at several deltas/thetas keep all core
// invariants (in-slack placement, per-process exclusivity, id ordering).
class SchedulerProperty
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(SchedulerProperty, InvariantsHoldOnRandomWorkloads) {
  const auto [delta, theta, seed] = GetParam();
  ScheduleOptions opts;
  opts.delta = delta;
  opts.theta = theta;
  const Slot num_slots = 300;
  AccessScheduler sched(8, num_slots, opts);

  Rng rng(seed);
  std::vector<AccessRecord> accesses;
  for (int i = 0; i < 120; ++i) {
    const Slot end = static_cast<Slot>(rng.next_below(num_slots));
    const Slot begin =
        end - static_cast<Slot>(rng.next_below(static_cast<std::uint64_t>(end) + 1));
    const int length = 1 + static_cast<int>(rng.next_below(3));
    Signature sig(8);
    sig.set(static_cast<int>(rng.next_below(8)));
    if (rng.next_bool(0.3)) sig.set(static_cast<int>(rng.next_below(8)));
    AccessRecord rec = make_access(i, i % 6, begin, end, sig,
                                   std::min<int>(length, static_cast<int>(end - begin + 1)));
    accesses.push_back(rec);
  }
  auto result = sched.schedule(accesses);

  ASSERT_EQ(result.size(), accesses.size());
  std::map<std::pair<int, Slot>, int> occupancy;
  for (std::size_t i = 0; i < result.size(); ++i) {
    const ScheduledAccess& r = result[i];
    const AccessRecord& rec = accesses[i];
    EXPECT_EQ(r.id, rec.id);
    if (r.forced) continue;
    EXPECT_GE(r.slot, rec.begin);
    EXPECT_LE(r.slot + rec.length - 1, rec.end);
    for (int k = 0; k < rec.length; ++k) {
      const int count = ++occupancy[std::make_pair(r.process, r.slot + k)];
      EXPECT_EQ(count, 1) << "process " << r.process << " slot "
                          << r.slot + k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerProperty,
    ::testing::Combine(::testing::Values(1, 5, 20),
                       ::testing::Values(0, 2, 4),
                       ::testing::Values(1u, 7u, 42u)));

}  // namespace
}  // namespace dasched
