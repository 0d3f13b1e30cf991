// Analytics math against hand-computed timelines: residency/energy folds,
// log-bucketed idle histograms, prediction accuracy, aggregation order.
#include "telemetry/analytics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

namespace dasched {
namespace {

TraceEvent accrual(SimTime t, std::uint16_t disk, DiskState state,
                   double joules, SimTime dt) {
  return TraceEvent{t, static_cast<std::uint16_t>(TraceEventKind::kEnergyAccrued),
                    disk, static_cast<std::uint32_t>(state),
                    std::bit_cast<std::uint64_t>(joules),
                    static_cast<std::uint64_t>(dt.count())};
}

TraceEvent idle_end(SimTime t, std::uint16_t disk, SimTime duration,
                    bool counted = true) {
  return TraceEvent{t, static_cast<std::uint16_t>(TraceEventKind::kStreamIdleEnd),
                    disk, counted ? 1u : 0u,
                    static_cast<std::uint64_t>(duration.count()), 0};
}

TEST(LogHistogram, BucketsMeanAndExtremes) {
  LogHistogram h;
  h.add(1);     // bucket 0
  h.add(2);     // bucket 1
  h.add(1000);  // bucket 9 ([512, 1024))
  EXPECT_EQ(h.total, 3);
  EXPECT_EQ(h.counts[0], 1);
  EXPECT_EQ(h.counts[1], 1);
  EXPECT_EQ(h.counts[9], 1);
  EXPECT_EQ(h.min_us, 1);
  EXPECT_EQ(h.max_us, 1000);
  EXPECT_DOUBLE_EQ(h.mean_us(), (1.0 + 2.0 + 1000.0) / 3.0);
}

TEST(LogHistogram, TimeWeightedMeanFavorsLongPeriods) {
  // Nine 1 µs periods and one 1000 µs period: the arithmetic mean is ~101,
  // but a random idle *instant* almost surely falls in the long period.
  LogHistogram h;
  for (int i = 0; i < 9; ++i) h.add(1);
  h.add(1000);
  EXPECT_DOUBLE_EQ(h.mean_us(), 1009.0 / 10.0);
  EXPECT_DOUBLE_EQ(h.time_weighted_mean_us(), (9.0 + 1000.0 * 1000.0) / 1009.0);
}

TEST(LogHistogram, PercentilesInterpolateAndClamp) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.add(100);  // all in bucket 6 ([64, 128))
  // Every percentile lands inside the single occupied bucket.
  EXPECT_GE(h.percentile_us(0.5), 64.0);
  EXPECT_LE(h.percentile_us(0.5), 100.0);  // clamped to max
  EXPECT_LE(h.percentile_us(1.0), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile_us(0.0), 64.0);  // p=0 -> bucket floor
  const LogHistogram empty;
  EXPECT_EQ(empty.percentile_us(0.5), 0.0);
}

TEST(LogHistogram, MergeMatchesCombinedStream) {
  LogHistogram a;
  LogHistogram b;
  LogHistogram both;
  for (const SimTime d : {5, 80, 3000}) {
    a.add(d);
    both.add(d);
  }
  for (const SimTime d : {1, 900}) {
    b.add(d);
    both.add(d);
  }
  a.merge(b);
  EXPECT_EQ(a.total, both.total);
  EXPECT_EQ(a.min_us, both.min_us);
  EXPECT_EQ(a.max_us, both.max_us);
  EXPECT_DOUBLE_EQ(a.sum_us, both.sum_us);
  EXPECT_DOUBLE_EQ(a.sum_sq_us, both.sum_sq_us);
  for (int i = 0; i < LogHistogram::kBuckets; ++i) {
    EXPECT_EQ(a.counts[static_cast<std::size_t>(i)],
              both.counts[static_cast<std::size_t>(i)]);
  }
}

TEST(TraceAnalyzer, ResidencyAndEnergyFromHandTimeline) {
  // Disk 0: idle 1000 µs @ 0.01 J, transferring 500 µs @ 0.02 J, idle again.
  // Disk 1: idle 2000 µs @ 0.03 J, standby 3000 µs @ 0.004 J.
  std::vector<TraceEvent> events = {
      accrual(1000, 0, DiskState::kIdle, 0.01, 1000),
      accrual(1500, 0, DiskState::kTransferring, 0.02, 500),
      accrual(2000, 0, DiskState::kIdle, 0.005, 500),
      accrual(2000, 1, DiskState::kIdle, 0.03, 2000),
      accrual(5000, 1, DiskState::kStandby, 0.004, 3000),
      idle_end(1000, 0, 700),
      idle_end(2000, 1, 1800),
      idle_end(2500, 1, 50, /*counted=*/false),  // below-threshold gap
  };
  TraceMeta meta;
  meta.disks_per_node = 1;
  const TelemetrySummary s = analyze_trace(events, meta);

  ASSERT_EQ(s.disks.size(), 2u);
  const auto idle = static_cast<std::size_t>(DiskState::kIdle);
  const auto xfer = static_cast<std::size_t>(DiskState::kTransferring);
  const auto standby = static_cast<std::size_t>(DiskState::kStandby);

  EXPECT_EQ(s.disks[0].residency[idle], 1500);
  EXPECT_EQ(s.disks[0].residency[xfer], 500);
  EXPECT_DOUBLE_EQ(s.disks[0].energy_by_state_j[idle].value(), 0.015);
  EXPECT_DOUBLE_EQ(s.disks[0].energy_j.value(), 0.01 + 0.02 + 0.005);
  EXPECT_EQ(s.disks[1].residency[standby], 3000);
  EXPECT_DOUBLE_EQ(s.disks[1].energy_j.value(), 0.034);

  // One disk per I/O node: the disk id is the node id.
  EXPECT_EQ(s.disks[0].node, 0);
  EXPECT_EQ(s.disks[1].node, 1);

  // Aggregates.
  EXPECT_EQ(s.residency[idle], 1500 + 2000);
  EXPECT_DOUBLE_EQ(s.energy_by_state_j[idle].value(), 0.015 + 0.03);
  EXPECT_DOUBLE_EQ(s.energy_total_j.value(), 0.035 + 0.034);
  // Only the counted gaps reach the histogram.
  EXPECT_EQ(s.idle.total, 2);
  EXPECT_EQ(s.idle.min_us, 700);
  EXPECT_EQ(s.idle.max_us, 1800);
  EXPECT_EQ(s.trace_events, 8u);
}

TEST(TraceAnalyzer, PredictionAndPolicyCounters) {
  std::vector<TraceEvent> events;
  // predicted 100 vs actual 40 (over), predicted 10 vs actual 80 (under).
  events.push_back(
      TraceEvent{0, static_cast<std::uint16_t>(TraceEventKind::kIdleObserved),
                 0, 0, 100, 40});
  events.push_back(
      TraceEvent{0, static_cast<std::uint16_t>(TraceEventKind::kIdleObserved),
                 0, 0, 10, 80});
  events.push_back(
      TraceEvent{0, static_cast<std::uint16_t>(TraceEventKind::kPolicyAction),
                 0, static_cast<std::uint32_t>(PolicyDecision::kSpinDown), 0,
                 0});
  events.push_back(
      TraceEvent{0, static_cast<std::uint16_t>(TraceEventKind::kPolicyAction),
                 0, static_cast<std::uint32_t>(PolicyDecision::kPreWake), 0,
                 0});
  events.push_back(
      TraceEvent{0, static_cast<std::uint16_t>(TraceEventKind::kPolicyAction),
                 0, static_cast<std::uint32_t>(PolicyDecision::kSpinDown), 0,
                 0});
  const TelemetrySummary s = analyze_trace(events, TraceMeta{});

  EXPECT_EQ(s.prediction.observations, 2);
  EXPECT_EQ(s.prediction.overpredictions, 1);
  EXPECT_EQ(s.prediction.underpredictions, 1);
  EXPECT_DOUBLE_EQ(s.prediction.mean_abs_error_us(), (60.0 + 70.0) / 2.0);
  EXPECT_DOUBLE_EQ(s.prediction.mean_signed_error_us(), (60.0 - 70.0) / 2.0);
  const auto spin = static_cast<std::size_t>(PolicyDecision::kSpinDown);
  const auto wake = static_cast<std::size_t>(PolicyDecision::kPreWake);
  EXPECT_EQ(s.policy_actions[spin], 2);
  EXPECT_EQ(s.policy_actions[wake], 1);
}

TEST(TraceAnalyzer, LevelOfGroupsKindsCorrectly) {
  EXPECT_EQ(level_of(TraceEventKind::kStateChange), TraceLevel::kState);
  EXPECT_EQ(level_of(TraceEventKind::kPolicyAction), TraceLevel::kState);
  EXPECT_EQ(level_of(TraceEventKind::kRequestSubmitted), TraceLevel::kRequest);
  EXPECT_EQ(level_of(TraceEventKind::kNodeWrite), TraceLevel::kRequest);
  EXPECT_EQ(level_of(TraceEventKind::kBlockLookup), TraceLevel::kFull);
  EXPECT_EQ(level_of(TraceEventKind::kEventDispatched), TraceLevel::kFull);
}

TEST(TraceLevelParsing, RoundTripsAndRejectsGarbage) {
  for (const auto level : {TraceLevel::kOff, TraceLevel::kState,
                           TraceLevel::kRequest, TraceLevel::kFull}) {
    const auto parsed = parse_trace_level(to_string(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(parse_trace_level("").has_value());
  EXPECT_FALSE(parse_trace_level("verbose").has_value());
  EXPECT_FALSE(parse_trace_level("State").has_value());
}

}  // namespace
}  // namespace dasched
