// Trace analytics: folds a recorded event stream into per-disk power-state
// residency timelines, log-bucketed idle-period histograms, energy-by-state
// breakdowns reconciled against the Table II power model, and
// prediction-accuracy statistics.
//
// Energy accrual events fully tile each disk's timeline (Disk::accrue fires
// one per residency interval), so the per-disk per-state sums here add the
// exact same terms in the exact same order as DiskStats — they are bit-equal
// per (disk, state), and the cross-disk aggregate agrees with the run's
// scalar energy to ~1e-12 relative (re-association only).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "disk/disk.h"
#include "telemetry/events.h"
#include "telemetry/recorder.h"

namespace dasched {

/// Log-bucketed duration histogram: bucket i counts durations in
/// [2^i, 2^(i+1)) µs (bucket 0 also absorbs <= 1 µs).
struct LogHistogram {
  static constexpr int kBuckets = 63;

  std::array<std::int64_t, kBuckets> counts{};
  std::int64_t total = 0;
  double sum_us = 0.0;
  /// Σ d², so sum_sq / sum is the time-weighted mean: the expected length of
  /// the idle period a randomly chosen idle *instant* falls into.
  double sum_sq_us = 0.0;
  SimTime min_us = 0;
  SimTime max_us = 0;

  void add(SimTime duration_us);

  [[nodiscard]] double mean_us() const {
    return total == 0 ? 0.0 : sum_us / static_cast<double>(total);
  }
  [[nodiscard]] double time_weighted_mean_us() const {
    return sum_us == 0.0 ? 0.0 : sum_sq_us / sum_us;
  }
  /// Percentile estimate (p in [0, 1]) with linear interpolation inside the
  /// containing power-of-two bucket.
  [[nodiscard]] double percentile_us(double p) const;

  void merge(const LogHistogram& other);
};

/// Residency / energy / idle profile of one disk.
struct DiskTimeline {
  int node = 0;
  std::array<SimTime, kNumDiskStates> residency{};
  std::array<Joules, kNumDiskStates> energy_by_state_j{};
  Joules energy_j{};
  LogHistogram idle;  // counted stream-idle gaps only (Fig. 12 quantity)
  std::int64_t requests = 0;
  std::int64_t services = 0;
  SimTime busy_time = 0;
};

/// Predicted-vs-actual idleness accuracy of the attached power policy.
struct PredictionStats {
  std::int64_t observations = 0;
  std::int64_t overpredictions = 0;   // predicted > actual
  std::int64_t underpredictions = 0;  // predicted < actual
  double sum_abs_error_us = 0.0;
  double sum_signed_error_us = 0.0;  // predicted - actual
  double sum_predicted_us = 0.0;
  double sum_actual_us = 0.0;

  [[nodiscard]] double mean_abs_error_us() const {
    return observations == 0
               ? 0.0
               : sum_abs_error_us / static_cast<double>(observations);
  }
  [[nodiscard]] double mean_signed_error_us() const {
    return observations == 0
               ? 0.0
               : sum_signed_error_us / static_cast<double>(observations);
  }
};

/// Everything one trace folds down to.
struct TelemetrySummary {
  TraceMeta meta;
  std::vector<DiskTimeline> disks;

  // Aggregates over all disks.
  std::array<SimTime, kNumDiskStates> residency{};
  std::array<Joules, kNumDiskStates> energy_by_state_j{};
  Joules energy_total_j{};
  LogHistogram idle;
  PredictionStats prediction;
  std::array<std::int64_t, kNumPolicyDecisions> policy_actions{};

  // Event counters.
  std::int64_t disk_requests = 0;
  std::int64_t services = 0;
  std::int64_t node_reads = 0;
  std::int64_t node_writes = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t prefetches = 0;
  std::int64_t requests_routed = 0;
  std::int64_t accesses_placed = 0;
  std::int64_t forced_placements = 0;
  std::int64_t theta_fallbacks = 0;
  std::int64_t sim_events = 0;
  std::uint64_t trace_events = 0;
};

/// Streaming fold; feed events in recording order, then `finish()`.
class TraceAnalyzer {
 public:
  void add(const TraceEvent& ev);
  [[nodiscard]] TelemetrySummary finish(const TraceMeta& meta);

 private:
  DiskTimeline& timeline_for(std::uint16_t subject);

  TelemetrySummary s_;
};

[[nodiscard]] TelemetrySummary analyze_trace(const TraceBuffer& buf,
                                             const TraceMeta& meta);
[[nodiscard]] TelemetrySummary analyze_trace(
    const std::vector<TraceEvent>& events, const TraceMeta& meta);

}  // namespace dasched
