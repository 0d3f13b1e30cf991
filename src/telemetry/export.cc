#include "telemetry/export.h"

#include <iomanip>
#include <ostream>
#include <vector>

namespace dasched {

namespace {

/// Incremental Chrome trace_event writer: per-disk power-state slices are
/// reconstructed from kStateChange events (disks start kIdle at t = 0) and
/// the trailing slice is flushed to meta.end_time.
class ChromeWriter {
 public:
  ChromeWriter(std::ostream& os, const TraceMeta& meta) : os_(os), meta_(meta) {
    os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    const int nodes = meta_.num_nodes;
    disks_.resize(static_cast<std::size_t>(nodes > 0 ? nodes : 0));
    for (int id = 0; id < nodes; ++id) {
      thread_name(id, kStateTid, "disk " + disk_label(id) + " state");
      thread_name(id, kPolicyTid, "disk " + disk_label(id) + " policy");
    }
  }

  void event(const TraceEvent& ev) {
    switch (ev.event_kind()) {
      case TraceEventKind::kStateChange: {
        const int id = ev.subject;
        if (id >= static_cast<int>(disks_.size())) return;
        TrackState& t = disks_[static_cast<std::size_t>(id)];
        const int from = static_cast<int>(ev.aux & 0xffu);
        const int to = static_cast<int>((ev.aux >> 8) & 0xffu);
        slice(id, t.since, ev.time, static_cast<DiskState>(from), t.rpm);
        t.state = to;
        t.since = ev.time;
        t.rpm = static_cast<Rpm>(ev.arg0);
        break;
      }
      case TraceEventKind::kPolicyAction: {
        const int id = ev.subject;
        begin_record();
        os_ << "{\"ph\":\"i\",\"pid\":" << id
            << ",\"tid\":" << kPolicyTid << ",\"ts\":" << ev.time
            << ",\"s\":\"t\",\"name\":\""
            << to_string(static_cast<PolicyDecision>(ev.aux))
            << "\",\"args\":{\"predicted_us\":" << ev.arg0
            << ",\"rpm\":" << ev.arg1 << "}}";
        break;
      }
      case TraceEventKind::kQueueDepth: {
        const int id = ev.subject;
        begin_record();
        os_ << "{\"ph\":\"C\",\"pid\":" << id
            << ",\"tid\":" << kStateTid << ",\"ts\":" << ev.time
            << ",\"name\":\"disk " << disk_label(id)
            << " queue\",\"args\":{\"depth\":" << ev.arg0 << "}}";
        break;
      }
      default:
        break;
    }
  }

  void finish() {
    for (std::size_t id = 0; id < disks_.size(); ++id) {
      const TrackState& t = disks_[id];
      if (meta_.end_time > t.since) {
        slice(static_cast<int>(id), t.since, meta_.end_time,
              static_cast<DiskState>(t.state), t.rpm);
      }
    }
    os_ << "]}\n";
  }

 private:
  struct TrackState {
    int state = 0;  // DiskState::kIdle
    SimTime since = 0;
    Rpm rpm = 0;
  };

  // One process per I/O node, holding its one disk's state and policy
  // tracks; a disk is labelled `<node>.0`.
  static constexpr int kStateTid = 0;
  static constexpr int kPolicyTid = 1;
  [[nodiscard]] static std::string disk_label(int id) {
    return std::to_string(id) + ".0";
  }

  void begin_record() {
    if (!first_) os_ << ",";
    first_ = false;
    os_ << "\n";
  }

  void thread_name(int pid, int tid, const std::string& name) {
    begin_record();
    os_ << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << name << "\"}}";
  }

  void slice(int id, SimTime from, SimTime to, DiskState state, Rpm rpm) {
    if (to <= from) return;
    begin_record();
    os_ << "{\"ph\":\"X\",\"pid\":" << id
        << ",\"tid\":" << kStateTid << ",\"ts\":" << from
        << ",\"dur\":" << (to - from) << ",\"name\":\"" << to_string(state)
        << "\",\"args\":{\"rpm\":" << rpm << "}}";
  }

  std::ostream& os_;
  const TraceMeta& meta_;
  std::vector<TrackState> disks_;
  bool first_ = true;
};

void json_histogram(std::ostream& os, const LogHistogram& h) {
  os << "{\"count\":" << h.total << ",\"mean_us\":" << h.mean_us()
     << ",\"time_weighted_mean_us\":" << h.time_weighted_mean_us()
     << ",\"p50_us\":" << h.percentile_us(0.50)
     << ",\"p95_us\":" << h.percentile_us(0.95) << ",\"min_us\":" << h.min_us
     << ",\"max_us\":" << h.max_us << ",\"buckets\":[";
  // Emit trailing-zero-trimmed bucket counts (log2 bucket i = [2^i, 2^i+1)).
  int last = -1;
  for (int i = 0; i < LogHistogram::kBuckets; ++i) {
    if (h.counts[static_cast<std::size_t>(i)] != 0) last = i;
  }
  for (int i = 0; i <= last; ++i) {
    if (i > 0) os << ",";
    os << h.counts[static_cast<std::size_t>(i)];
  }
  os << "]}";
}

void json_state_array(std::ostream& os, const char* key,
                      const std::array<Joules, kNumDiskStates>& v) {
  os << "\"" << key << "\":{";
  for (int s = 0; s < kNumDiskStates; ++s) {
    if (s > 0) os << ",";
    os << "\"" << to_string(static_cast<DiskState>(s))
       << "\":" << v[static_cast<std::size_t>(s)];
  }
  os << "}";
}

void json_residency(std::ostream& os,
                    const std::array<SimTime, kNumDiskStates>& v) {
  os << "\"residency_us\":{";
  for (int s = 0; s < kNumDiskStates; ++s) {
    if (s > 0) os << ",";
    os << "\"" << to_string(static_cast<DiskState>(s))
       << "\":" << v[static_cast<std::size_t>(s)];
  }
  os << "}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const TraceBuffer& buf,
                        const TraceMeta& meta) {
  ChromeWriter w(os, meta);
  buf.for_each([&w](const TraceEvent& ev) { w.event(ev); });
  w.finish();
}

void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events,
                        const TraceMeta& meta) {
  ChromeWriter w(os, meta);
  for (const TraceEvent& ev : events) w.event(ev);
  w.finish();
}

void write_summary_json(std::ostream& os, const TelemetrySummary& s) {
  const auto saved = os.precision();
  os << std::setprecision(17);
  os << "{\"app\":\"" << s.meta.app << "\",\"policy\":" << s.meta.policy
     << ",\"scheme\":" << (s.meta.scheme ? "true" : "false")
     << ",\"seed\":" << s.meta.seed << ",\"level\":\""
     << to_string(s.meta.level) << "\",\"num_nodes\":" << s.meta.num_nodes
     << ",\"disks_per_node\":" << s.meta.disks_per_node
     << ",\"end_time_us\":" << s.meta.end_time
     << ",\"trace_events\":" << s.trace_events
     << ",\"energy_total_j\":" << s.energy_total_j << ",";
  json_state_array(os, "energy_by_state_j", s.energy_by_state_j);
  os << ",";
  json_residency(os, s.residency);
  os << ",\"idle\":";
  json_histogram(os, s.idle);
  os << ",\"prediction\":{\"observations\":" << s.prediction.observations
     << ",\"overpredictions\":" << s.prediction.overpredictions
     << ",\"underpredictions\":" << s.prediction.underpredictions
     << ",\"mean_abs_error_us\":" << s.prediction.mean_abs_error_us()
     << ",\"mean_signed_error_us\":" << s.prediction.mean_signed_error_us()
     << ",\"sum_predicted_us\":" << s.prediction.sum_predicted_us
     << ",\"sum_actual_us\":" << s.prediction.sum_actual_us << "}";
  os << ",\"policy_actions\":{";
  for (int d = 0; d < kNumPolicyDecisions; ++d) {
    if (d > 0) os << ",";
    os << "\"" << to_string(static_cast<PolicyDecision>(d))
       << "\":" << s.policy_actions[static_cast<std::size_t>(d)];
  }
  os << "}";
  os << ",\"counters\":{\"disk_requests\":" << s.disk_requests
     << ",\"services\":" << s.services << ",\"node_reads\":" << s.node_reads
     << ",\"node_writes\":" << s.node_writes
     << ",\"cache_hits\":" << s.cache_hits
     << ",\"cache_misses\":" << s.cache_misses
     << ",\"prefetches\":" << s.prefetches
     << ",\"requests_routed\":" << s.requests_routed
     << ",\"accesses_placed\":" << s.accesses_placed
     << ",\"forced_placements\":" << s.forced_placements
     << ",\"theta_fallbacks\":" << s.theta_fallbacks
     << ",\"sim_events\":" << s.sim_events << "}";
  os << ",\"disks\":[";
  for (std::size_t i = 0; i < s.disks.size(); ++i) {
    const DiskTimeline& d = s.disks[i];
    if (i > 0) os << ",";
    os << "{\"node\":" << d.node << ",\"disk\":0"
       << ",\"energy_j\":" << d.energy_j << ",";
    json_state_array(os, "energy_by_state_j", d.energy_by_state_j);
    os << ",";
    json_residency(os, d.residency);
    os << ",\"requests\":" << d.requests << ",\"services\":" << d.services
       << ",\"busy_time_us\":" << d.busy_time << ",\"idle\":";
    json_histogram(os, d.idle);
    os << "}";
  }
  os << "]}\n";
  os.precision(saved);
}

}  // namespace dasched
