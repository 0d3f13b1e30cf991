#include "telemetry/events.h"

namespace dasched {

const char* to_string(TraceLevel level) {
  switch (level) {
    case TraceLevel::kOff: return "off";
    case TraceLevel::kState: return "state";
    case TraceLevel::kRequest: return "request";
    case TraceLevel::kFull: return "full";
  }
  return "?";
}

std::optional<TraceLevel> parse_trace_level(std::string_view s) {
  if (s == "off") return TraceLevel::kOff;
  if (s == "state") return TraceLevel::kState;
  if (s == "request") return TraceLevel::kRequest;
  if (s == "full") return TraceLevel::kFull;
  return std::nullopt;
}

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kStateChange: return "state-change";
    case TraceEventKind::kEnergyAccrued: return "energy-accrued";
    case TraceEventKind::kStreamIdleBegin: return "stream-idle-begin";
    case TraceEventKind::kStreamIdleEnd: return "stream-idle-end";
    case TraceEventKind::kPolicyAction: return "policy-action";
    case TraceEventKind::kIdleObserved: return "idle-observed";
    case TraceEventKind::kDiskFinalized: return "disk-finalized";
    case TraceEventKind::kRequestSubmitted: return "request-submitted";
    case TraceEventKind::kServiceStart: return "service-start";
    case TraceEventKind::kServiceComplete: return "service-complete";
    case TraceEventKind::kQueueDepth: return "queue-depth";
    case TraceEventKind::kNodeRead: return "node-read";
    case TraceEventKind::kNodeWrite: return "node-write";
    case TraceEventKind::kBlockLookup: return "block-lookup";
    case TraceEventKind::kPrefetchIssued: return "prefetch-issued";
    case TraceEventKind::kDiskRequestsIssued: return "disk-ops-issued";
    case TraceEventKind::kRequestRouted: return "request-routed";
    case TraceEventKind::kAccessPlaced: return "access-placed";
    case TraceEventKind::kEventDispatched: return "event-dispatched";
  }
  return "?";
}

}  // namespace dasched
