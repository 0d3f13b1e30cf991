// Randomized differential test: the fast-path AccessScheduler must be
// bit-identical to the preserved pre-rewrite implementation
// (reference_scheduler.h) — same placements, same forced/fallback decisions,
// same float stats, same group signatures, across every option combination
// that changes the code path: θ on/off, candidate sampling
// off/aggressive/default, single- and multi-word signatures, mixed access
// lengths — plus targeted cases: every candidate
// count from 1 to 17 (written for the retired four-lane sums), windows
// clipped at both timeline ends, all-equal reuse on an empty timeline, E_t
// ties across different reuse values, and random placement sequences
// against the per-class reuse tables (placements before a batch, forced
// pins, a second batch without reset(), δ = 0, a δ wider than the
// timeline, >= 200 classes over 96 nodes), and the per-class θ rows under
// heavy node saturation (θ = 1, 2, 4).
#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "reference_scheduler.h"
#include "util/rng.h"

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
    rec.original = rec.begin + static_cast<Slot>(rng.next_below(
                                   static_cast<std::uint64_t>(rec.slack_length())));
    // Mixed lengths 1..4, clamped to the slack as the compiler does.
    rec.length = std::min<int>(
        1 + static_cast<int>(rng.next_below(4)),
        static_cast<int>(rec.slack_length()));
    rec.sig = Signature(nodes);
    const int stripe = 1 + static_cast<int>(rng.next_below(4));
    for (int s = 0; s < stripe; ++s) {
      rec.sig.set(static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(nodes))));
    }
    out.push_back(std::move(rec));
  }
  return out;
}

struct Variant {
  int theta;
  int max_candidates;
};

TEST(SchedulerDifferentialTest, MatchesReferenceBitForBit) {
  // 2 θ × 3 sampling × 4 seeds = 24 randomized runs.
  const Variant variants[] = {
      {0, 0}, {0, 8}, {0, 128}, {4, 0}, {4, 8}, {4, 128},
  };
  const std::uint64_t seeds[] = {1, 2, 3, 4};

  int runs = 0;
  for (const Variant& v : variants) {
    for (std::uint64_t seed : seeds) {
      SCOPED_TRACE("theta=" + std::to_string(v.theta) +
                   " max_candidates=" + std::to_string(v.max_candidates) +
                   " seed=" + std::to_string(seed));
      // Odd seeds use a >64-node cluster to exercise multi-word signatures.
      const int nodes = (seed % 2 == 0) ? 12 : 96;
      const Slot slots = 512;
      const auto accesses = random_accesses(400, nodes, slots, 24, seed);

      ScheduleOptions opts;
      opts.theta = v.theta;
      opts.max_candidates = v.max_candidates;

      ReferenceScheduler ref(nodes, slots, opts);
      AccessScheduler fast(nodes, slots, opts);
      const auto expected = ref.schedule(accesses);
      const auto actual = fast.schedule(accesses);

      ASSERT_EQ(expected.size(), actual.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].id, actual[i].id) << "index " << i;
        EXPECT_EQ(expected[i].slot, actual[i].slot)
            << "access #" << expected[i].id;
        EXPECT_EQ(expected[i].forced, actual[i].forced)
            << "access #" << expected[i].id;
        EXPECT_EQ(expected[i].theta_fallback, actual[i].theta_fallback)
            << "access #" << expected[i].id;
      }

      EXPECT_EQ(ref.stats().scheduled, fast.stats().scheduled);
      EXPECT_EQ(ref.stats().forced, fast.stats().forced);
      EXPECT_EQ(ref.stats().theta_fallbacks, fast.stats().theta_fallbacks);
      // Bit-identical, not just approximately equal: the fast path must sum
      // the same terms in the same order.
      EXPECT_EQ(ref.stats().mean_advance_slots, fast.stats().mean_advance_slots);

      for (Slot s = 0; s < slots; ++s) {
        ASSERT_EQ(ref.group_signature(s), fast.group_signature(s))
            << "group signature diverges at slot " << s;
      }
      runs += 1;
    }
  }
  EXPECT_EQ(runs, 24);
}

// reset() + schedule_into() must replay exactly: a reused scheduler is
// indistinguishable from a fresh one (timeline cleared).
TEST(SchedulerDifferentialTest, ResetReplaysIdentically) {
  ScheduleOptions opts;
  opts.theta = 4;
  const auto accesses = random_accesses(300, 12, 256, 16, 99);

  AccessScheduler fresh(12, 256, opts);
  const auto expected = fresh.schedule(accesses);

  AccessScheduler reused(12, 256, opts);
  std::vector<ScheduledAccess> out;
  reused.schedule_into(accesses, out);
  reused.reset();
  reused.schedule_into(accesses, out);

  ASSERT_EQ(expected.size(), out.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].slot, out[i].slot) << "access #" << expected[i].id;
    EXPECT_EQ(expected[i].forced, out[i].forced);
  }
  EXPECT_EQ(fresh.stats().forced, reused.stats().forced);
  EXPECT_EQ(fresh.stats().theta_fallbacks, reused.stats().theta_fallbacks);
  EXPECT_EQ(fresh.stats().mean_advance_slots, reused.stats().mean_advance_slots);
  for (Slot s = 0; s < 256; ++s) {
    ASSERT_EQ(fresh.group_signature(s), reused.group_signature(s));
  }
}

/// Places `pre` on both schedulers, then runs every batch through both on
/// the same timeline (no reset() between batches), and expects identical
/// placements, stats and group signatures after each.  Returns the fast
/// scheduler's stats.
ScheduleStats expect_replay_matches_reference(
    int nodes, Slot slots, const ScheduleOptions& opts,
    const std::vector<std::vector<AccessRecord>>& batches,
    const std::vector<std::pair<AccessRecord, Slot>>& pre = {}) {
  ReferenceScheduler ref(nodes, slots, opts);
  AccessScheduler fast(nodes, slots, opts);
  for (const auto& [rec, slot] : pre) {
    ref.place(rec, slot);
    fast.place(rec, slot);
  }
  for (std::size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const auto expected = ref.schedule(batches[b]);
    const auto actual = fast.schedule(batches[b]);
    EXPECT_EQ(expected.size(), actual.size());
    if (expected.size() != actual.size()) return fast.stats();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].slot, actual[i].slot)
          << "access #" << expected[i].id;
      EXPECT_EQ(expected[i].forced, actual[i].forced)
          << "access #" << expected[i].id;
      EXPECT_EQ(expected[i].theta_fallback, actual[i].theta_fallback)
          << "access #" << expected[i].id;
    }
    EXPECT_EQ(ref.stats().forced, fast.stats().forced);
    EXPECT_EQ(ref.stats().theta_fallbacks, fast.stats().theta_fallbacks);
    EXPECT_EQ(ref.stats().mean_advance_slots, fast.stats().mean_advance_slots);
    for (Slot s = 0; s < slots; ++s) {
      EXPECT_EQ(ref.group_signature(s), fast.group_signature(s))
          << "group signature diverges at slot " << s;
      if (ref.group_signature(s) != fast.group_signature(s)) break;
    }
  }
  return fast.stats();
}

/// Runs `accesses` through both schedulers after the same `pre` placements
/// and expects identical placements, stats and group signatures.
void expect_matches_reference(
    int nodes, Slot slots, const ScheduleOptions& opts,
    const std::vector<AccessRecord>& accesses,
    const std::vector<std::pair<AccessRecord, Slot>>& pre = {}) {
  (void)expect_replay_matches_reference(nodes, slots, opts, {accesses}, pre);
}

AccessRecord make_access(int id, int process, Slot begin, Slot end, int length,
                         Signature sig) {
  AccessRecord rec;
  rec.id = id;
  rec.process = process;
  rec.begin = begin;
  rec.end = end;
  rec.length = length;
  rec.original = end - length + 1;
  rec.sig = std::move(sig);
  return rec;
}

// Every candidate count from 1 to 17, for each access length (it covered
// each remainder modulo the width of the retired four-lane sums).
// One process per access, so every start slot of the slack is a candidate.
TEST(SchedulerDifferentialTest, EveryCandidateCountModuloTheLaneWidth) {
  for (int theta : {0, 2}) {
    SCOPED_TRACE("theta=" + std::to_string(theta));
    ScheduleOptions opts;
    opts.theta = theta;
    opts.delta = 5;
    Rng rng(3);
    std::vector<AccessRecord> accesses;
    int id = 0;
    for (int count = 1; count <= 17; ++count) {
      for (int length = 1; length <= 3; ++length) {
        const Slot begin = 10 + static_cast<Slot>(rng.next_below(40));
        Signature sig(8);
        sig.set(static_cast<int>(rng.next_below(8)));
        sig.set(static_cast<int>(rng.next_below(8)));
        accesses.push_back(make_access(id, id, begin,
                                       begin + count + length - 2, length,
                                       std::move(sig)));
        ++id;
      }
    }
    expect_matches_reference(8, 128, opts, accesses);
  }
}

// Timelines shorter than one σ window clip every candidate on both sides;
// longer ones clip only the candidates near either end.
TEST(SchedulerDifferentialTest, WindowsClippedAtBothTimelineEnds) {
  for (Slot slots : {Slot{12}, Slot{30}, Slot{64}}) {
    for (int theta : {0, 3}) {
      SCOPED_TRACE("slots=" + std::to_string(slots) +
                   " theta=" + std::to_string(theta));
      ScheduleOptions opts;
      opts.theta = theta;
      opts.delta = 20;
      const auto accesses = random_accesses(80, 8, slots, 6, 17 + slots);
      expect_matches_reference(8, slots, opts, accesses);
    }
  }
}

// On an empty timeline every unclipped window has the same reuse factor,
// so the θ path's argmax must keep the earliest such slot, exactly as the
// reference's stable sort does.
TEST(SchedulerDifferentialTest, EmptyTimelineWithThetaPicksEarliestEqualReuse) {
  ScheduleOptions opts;
  opts.theta = 4;
  opts.delta = 3;
  const std::vector<AccessRecord> accesses = {
      make_access(0, 0, 10, 40, 2, Signature::from_nodes(8, {1, 5}))};
  AccessScheduler fast(8, 64, opts);
  const auto placed = fast.schedule(accesses);
  ASSERT_EQ(placed.size(), 1u);
  EXPECT_EQ(placed[0].slot, 10);
  expect_matches_reference(8, 64, opts, accesses);

  // A batch of same-signature accesses: every later one meets ties too.
  std::vector<AccessRecord> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back(make_access(i, i % 3, 4 + i, 50 + i, 1 + i % 2,
                                Signature::from_nodes(8, {1, 5})));
  }
  expect_matches_reference(8, 64, opts, batch);
}

// Every candidate violates θ and has the same E_t, but reuse differs from
// slot to slot: the fallback must pick the highest reuse among the E_t
// minimizers (earliest slot on a further tie), not merely the first slot.
TEST(SchedulerDifferentialTest, ThetaFallbackEtTiesAcrossDifferentReuse) {
  ScheduleOptions opts;
  opts.theta = 1;
  opts.delta = 2;
  const int nodes = 8;
  const Slot slots = 64;
  std::vector<std::pair<AccessRecord, Slot>> pre;
  int id = 100;
  // Saturate node 0 once in every slot of [20, 40]: E_t = 1 everywhere.
  for (Slot s = 20; s <= 40; ++s) {
    pre.push_back({make_access(id++, 10, s, s, 1,
                               Signature::from_nodes(nodes, {0})),
                   s});
  }
  // Extra node-1 accesses on some slots raise the distance there without
  // touching node 0's counts, so reuse differs while E_t stays tied.
  for (Slot s : {Slot{22}, Slot{23}, Slot{29}, Slot{35}, Slot{36}, Slot{37}}) {
    pre.push_back({make_access(id++, 11, s, s, 1,
                               Signature::from_nodes(nodes, {1})),
                   s});
  }
  const std::vector<AccessRecord> accesses = {
      make_access(0, 0, 22, 38, 1, Signature::from_nodes(nodes, {0, 1})),
      make_access(1, 1, 21, 39, 2, Signature::from_nodes(nodes, {0})),
      make_access(2, 2, 24, 34, 1, Signature::from_nodes(nodes, {0, 2})),
  };
  expect_matches_reference(nodes, slots, opts, accesses, pre);

  AccessScheduler fast(nodes, slots, opts);
  for (const auto& [rec, slot] : pre) fast.place(rec, slot);
  (void)fast.schedule(accesses);
  EXPECT_EQ(fast.stats().theta_fallbacks, 3);
}

/// Number of distinct (signature, length) classes among `accesses`.
std::size_t distinct_classes(const std::vector<AccessRecord>& accesses) {
  std::set<std::pair<std::string, int>> classes;
  for (const AccessRecord& rec : accesses) {
    classes.insert({rec.sig.to_string(), rec.length});
  }
  return classes.size();
}

// The per-class reuse tables against the reference on random placement
// sequences: placements made with place() before schedule_into, forced
// pins, a second batch on the same timeline without reset(), δ = 0, a δ
// wider than the timeline, and a 96-node cluster whose batch holds at
// least 200 distinct (signature, length) classes.
TEST(SchedulerDifferentialTest, ClassTablesMatchReferenceOnRandomSequences) {
  const struct {
    int nodes;
    Slot slots;
    int delta;
    int processes;
    int count;
  } cases[] = {
      {8, 256, 20, 24, 300},   // Table II δ, a handful of classes
      {12, 200, 0, 16, 300},   // δ = 0: a window is its occupied slots
      {8, 96, 500, 12, 150},   // δ wider than the timeline
      {96, 384, 20, 24, 500},  // multi-word signatures, >= 200 classes
      {8, 128, 6, 3, 300},     // three processes: full slacks force pins
  };
  std::int64_t forced = 0;
  int runs = 0;
  for (const auto& c : cases) {
    for (int theta : {0, 4}) {
      for (std::uint64_t seed : {11u, 12u}) {
        SCOPED_TRACE("nodes=" + std::to_string(c.nodes) +
                     " delta=" + std::to_string(c.delta) +
                     " theta=" + std::to_string(theta) +
                     " seed=" + std::to_string(seed));
        ScheduleOptions opts;
        opts.delta = c.delta;
        opts.theta = theta;
        opts.max_candidates = seed % 2 == 0 ? 16 : 0;

        // Placements made before the first batch, each at a random slot of
        // its own slack.
        Rng rng(seed * 31);
        std::vector<std::pair<AccessRecord, Slot>> pre;
        for (AccessRecord& rec : random_accesses(c.count / 4, c.nodes, c.slots,
                                                 c.processes, seed * 31)) {
          const Slot span = rec.latest_start() - rec.begin + 1;
          const Slot slot = rec.begin + static_cast<Slot>(rng.next_below(
                                            static_cast<std::uint64_t>(span)));
          pre.emplace_back(std::move(rec), slot);
        }
        const std::vector<std::vector<AccessRecord>> batches = {
            random_accesses(c.count, c.nodes, c.slots, c.processes, seed),
            random_accesses(c.count / 2, c.nodes, c.slots, c.processes,
                            seed + 100),
        };
        if (c.nodes > 64) {
          EXPECT_GE(distinct_classes(batches[0]), 200u);
        }
        forced += expect_replay_matches_reference(c.nodes, c.slots, opts,
                                                  batches, pre).forced;
        runs += 1;
      }
    }
  }
  EXPECT_EQ(runs, 20);
  EXPECT_GT(forced, 0) << "no case exercised the forced pin";
}

/// Accesses whose signatures draw 1–3 nodes from the 12 nodes straddling
/// the first word boundary (58–69) of a 96-node cluster, so nodes saturate
/// quickly and both signature words carry bits.  Slacks are up to
/// `max_slack` slots wide.
std::vector<AccessRecord> saturating_accesses(int count, Slot slots,
                                              int processes, Slot max_slack,
                                              std::uint64_t seed) {
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
    rec.begin = std::max<Slot>(
        0, rec.end - static_cast<Slot>(rng.next_below(
                         static_cast<std::uint64_t>(max_slack))));
    rec.length = std::min<int>(1 + static_cast<int>(rng.next_below(4)),
                               static_cast<int>(rec.slack_length()));
    rec.original = rec.begin + static_cast<Slot>(rng.next_below(
                                   static_cast<std::uint64_t>(
                                       rec.latest_start() - rec.begin + 1)));
    rec.sig = Signature(96);
    const int stripe = 1 + static_cast<int>(rng.next_below(3));
    for (int s = 0; s < stripe; ++s) {
      rec.sig.set(58 + static_cast<int>(rng.next_below(12)));
    }
    out.push_back(std::move(rec));
  }
  return out;
}

// The per-class θ rows against the reference where nodes saturate: θ of 1,
// 2 and 4, lengths 1–4, 96 nodes, slacks wider than max_candidates (the
// stride plus the appended latest start), σ windows clipped at both ends
// of a short timeline, placements made before the batch, forced pins, and
// a second batch without reset().
TEST(SchedulerDifferentialTest, ThetaRowsMatchReferenceUnderSaturation) {
  constexpr int kNodes = 96;
  constexpr Slot kSlots = 160;
  std::int64_t forced = 0;
  std::int64_t fallbacks = 0;
  int runs = 0;
  for (int theta : {1, 2, 4}) {
    for (int max_candidates : {0, 8}) {
      for (std::uint64_t seed : {21u, 22u, 23u, 24u}) {
        SCOPED_TRACE("theta=" + std::to_string(theta) +
                     " max_candidates=" + std::to_string(max_candidates) +
                     " seed=" + std::to_string(seed));
        ScheduleOptions opts;
        opts.theta = theta;
        opts.delta = 20;
        opts.max_candidates = max_candidates;
        // Odd seeds: few processes and narrow slacks, so whole slacks fill
        // up and accesses are pinned.
        const bool crowded = seed % 2 == 1;
        const int processes = crowded ? 4 : 40;
        const Slot max_slack = crowded ? 12 : 64;

        Rng rng(seed * 7);
        std::vector<std::pair<AccessRecord, Slot>> pre;
        for (AccessRecord& rec :
             saturating_accesses(60, kSlots, processes, max_slack, seed * 7)) {
          const Slot span = rec.latest_start() - rec.begin + 1;
          const Slot slot = rec.begin + static_cast<Slot>(rng.next_below(
                                            static_cast<std::uint64_t>(span)));
          pre.emplace_back(std::move(rec), slot);
        }
        const std::vector<std::vector<AccessRecord>> batches = {
            saturating_accesses(300, kSlots, processes, max_slack, seed),
            saturating_accesses(150, kSlots, processes, max_slack, seed + 50),
        };
        const ScheduleStats stats = expect_replay_matches_reference(
            kNodes, kSlots, opts, batches, pre);
        forced += stats.forced;
        fallbacks += stats.theta_fallbacks;
        runs += 1;
      }
    }
  }
  EXPECT_EQ(runs, 24);
  EXPECT_GT(forced, 0) << "no case exercised the forced pin";
  EXPECT_GT(fallbacks, 0) << "no case exercised the E_t fallback";
}

}  // namespace
}  // namespace dasched
