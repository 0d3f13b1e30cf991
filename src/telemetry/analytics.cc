#include "telemetry/analytics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dasched {

void LogHistogram::add(SimTime duration_us) {
  const auto v = static_cast<std::uint64_t>(std::max<SimTime>(duration_us, 0).count());
  // Bucket i covers [2^i, 2^(i+1)); 0 and 1 both land in bucket 0.
  const int bucket =
      v <= 1 ? 0
             : std::min(kBuckets - 1, static_cast<int>(std::bit_width(v)) - 1);
  counts[static_cast<std::size_t>(bucket)] += 1;
  if (total == 0 || duration_us < min_us) min_us = duration_us;
  if (duration_us > max_us) max_us = duration_us;
  total += 1;
  const auto d = static_cast<double>(duration_us);
  sum_us += d;
  sum_sq_us += d * d;
}

double LogHistogram::percentile_us(double p) const {
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(total);
  std::int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::int64_t c = counts[static_cast<std::size_t>(i)];
    if (c == 0) continue;
    if (static_cast<double>(seen + c) >= target) {
      // Linear interpolation inside [2^i, 2^(i+1)).
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, i);
      const double hi = std::ldexp(1.0, i + 1);
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(c);
      const double v = lo + frac * (hi - lo);
      return std::min(v, static_cast<double>(max_us));
    }
    seen += c;
  }
  return static_cast<double>(max_us);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.total == 0) return;
  for (int i = 0; i < kBuckets; ++i) {
    counts[static_cast<std::size_t>(i)] +=
        other.counts[static_cast<std::size_t>(i)];
  }
  if (total == 0 || other.min_us < min_us) min_us = other.min_us;
  max_us = std::max(max_us, other.max_us);
  total += other.total;
  sum_us += other.sum_us;
  sum_sq_us += other.sum_sq_us;
}

DiskTimeline& TraceAnalyzer::timeline_for(std::uint16_t subject) {
  const auto id = static_cast<std::size_t>(subject);
  if (s_.disks.size() <= id) s_.disks.resize(id + 1);
  return s_.disks[id];
}

void TraceAnalyzer::add(const TraceEvent& ev) {
  s_.trace_events += 1;
  switch (ev.event_kind()) {
    case TraceEventKind::kEnergyAccrued: {
      DiskTimeline& d = timeline_for(ev.subject);
      const auto state = static_cast<std::size_t>(ev.aux);
      if (state < static_cast<std::size_t>(kNumDiskStates)) {
        d.residency[state] += static_cast<SimTime>(ev.arg1);
        // Same addition order as Disk::accrue -> bit-equal per (disk, state).
        d.energy_by_state_j[state] += Joules{ev.arg0_double()};
      }
      break;
    }
    case TraceEventKind::kStreamIdleEnd: {
      if (ev.aux != 0) {
        timeline_for(ev.subject).idle.add(static_cast<SimTime>(ev.arg0));
      }
      break;
    }
    case TraceEventKind::kPolicyAction: {
      const auto d = static_cast<std::size_t>(ev.aux);
      if (d < s_.policy_actions.size()) s_.policy_actions[d] += 1;
      break;
    }
    case TraceEventKind::kIdleObserved: {
      const auto predicted = static_cast<double>(ev.arg0);
      const auto actual = static_cast<double>(ev.arg1);
      PredictionStats& p = s_.prediction;
      p.observations += 1;
      if (predicted > actual) p.overpredictions += 1;
      if (predicted < actual) p.underpredictions += 1;
      p.sum_abs_error_us += std::fabs(predicted - actual);
      p.sum_signed_error_us += predicted - actual;
      p.sum_predicted_us += predicted;
      p.sum_actual_us += actual;
      break;
    }
    case TraceEventKind::kRequestSubmitted:
      timeline_for(ev.subject).requests += 1;
      s_.disk_requests += 1;
      break;
    case TraceEventKind::kServiceComplete: {
      DiskTimeline& d = timeline_for(ev.subject);
      d.services += 1;
      d.busy_time += static_cast<SimTime>(ev.arg0);
      s_.services += 1;
      break;
    }
    case TraceEventKind::kNodeRead:
      s_.node_reads += 1;
      break;
    case TraceEventKind::kNodeWrite:
      s_.node_writes += 1;
      break;
    case TraceEventKind::kBlockLookup:
      if (ev.aux != 0) {
        s_.cache_hits += 1;
      } else {
        s_.cache_misses += 1;
      }
      break;
    case TraceEventKind::kPrefetchIssued:
      s_.prefetches += 1;
      break;
    case TraceEventKind::kRequestRouted:
      s_.requests_routed += 1;
      break;
    case TraceEventKind::kAccessPlaced:
      s_.accesses_placed += 1;
      if ((ev.aux & 1u) != 0) s_.forced_placements += 1;
      if ((ev.aux & 2u) != 0) s_.theta_fallbacks += 1;
      break;
    case TraceEventKind::kEventDispatched:
      s_.sim_events += 1;
      break;
    case TraceEventKind::kStateChange:
    case TraceEventKind::kStreamIdleBegin:
    case TraceEventKind::kDiskFinalized:
    case TraceEventKind::kServiceStart:
    case TraceEventKind::kQueueDepth:
    case TraceEventKind::kDiskRequestsIssued:
      break;  // shape-only events; the exporters render them
  }
}

TelemetrySummary TraceAnalyzer::finish(const TraceMeta& meta) {
  s_.meta = meta;
  for (std::size_t id = 0; id < s_.disks.size(); ++id) {
    DiskTimeline& d = s_.disks[id];
    d.node = static_cast<int>(id);
    Joules disk_total{};
    for (int st = 0; st < kNumDiskStates; ++st) {
      const auto i = static_cast<std::size_t>(st);
      s_.residency[i] += d.residency[i];
      s_.energy_by_state_j[i] += d.energy_by_state_j[i];
      disk_total += d.energy_by_state_j[i];
    }
    d.energy_j = disk_total;
    // Mirrors StorageStats aggregation (per-disk totals, then across
    // disks), so the aggregate tracks the run's scalar energy closely.
    s_.energy_total_j += disk_total;
    s_.idle.merge(d.idle);
  }
  return std::move(s_);
}

TelemetrySummary analyze_trace(const TraceBuffer& buf, const TraceMeta& meta) {
  TraceAnalyzer a;
  buf.for_each([&a](const TraceEvent& ev) { a.add(ev); });
  return a.finish(meta);
}

TelemetrySummary analyze_trace(const std::vector<TraceEvent>& events,
                               const TraceMeta& meta) {
  TraceAnalyzer a;
  for (const TraceEvent& ev : events) a.add(ev);
  return a.finish(meta);
}

}  // namespace dasched
