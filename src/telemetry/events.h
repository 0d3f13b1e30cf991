// Typed binary trace events — the telemetry subsystem's on-disk and
// in-memory unit of record.
//
// A trace is a flat time-ordered stream of 32-byte POD `TraceEvent`s.  The
// `kind` selects the meaning of the remaining fields; `subject` identifies
// the emitting entity (global disk id, I/O-node id, process id or file id,
// per kind); `aux` carries small kind-specific flags and `arg0`/`arg1` the
// payload (doubles travel bit-cast through `std::bit_cast`).  Keeping the
// record trivially copyable makes recording a single store sequence into a
// pooled chunk (recorder.h) and persistence a straight fwrite (trace_io.h).
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/units.h"

namespace dasched {

/// How much of the stack a recording captures.  Each level is a superset of
/// the previous one.
enum class TraceLevel : int {
  kOff = 0,
  /// Power-state transitions, energy accruals, idle-period boundaries and
  /// policy decisions — everything the residency/energy analytics need.
  kState = 1,
  /// Plus per-request disk service spans, queue depths and node-level
  /// request arrivals.
  kRequest = 2,
  /// Plus cache lookups, prefetches, stripe routing, scheduler placements
  /// and raw simulator event dispatch.
  kFull = 3,
};

[[nodiscard]] const char* to_string(TraceLevel level);

/// Parses "off" / "state" / "request" / "full"; nullopt on anything else.
/// Never allocates.
[[nodiscard]] std::optional<TraceLevel> parse_trace_level(std::string_view s);

/// Event kinds, grouped by the minimum level that records them.  The
/// numeric gaps between groups are deliberate: `kind / 16` is the group.
enum class TraceEventKind : std::uint16_t {
  // --- kState -------------------------------------------------------------
  /// subject=disk, aux=from | to<<8, arg0=current rpm.
  kStateChange = 1,
  /// subject=disk, aux=state, arg0=bit_cast(joules), arg1=dt (µs).
  kEnergyAccrued = 2,
  /// subject=disk.
  kStreamIdleBegin = 3,
  /// subject=disk, aux=counted, arg0=duration (µs).
  kStreamIdleEnd = 4,
  /// subject=disk, aux=PolicyDecision, arg0=predicted idle (µs), arg1=rpm.
  kPolicyAction = 5,
  /// subject=disk, arg0=predicted (µs), arg1=actual (µs).
  kIdleObserved = 6,
  /// subject=disk, arg0=bit_cast(total energy J).
  kDiskFinalized = 7,

  // --- kRequest -----------------------------------------------------------
  /// subject=disk, aux=is_write | background<<1, arg0=offset, arg1=size.
  kRequestSubmitted = 16,
  /// subject=disk, aux=is_write | background<<1, arg0=offset, arg1=size.
  kServiceStart = 17,
  /// subject=disk, arg0=service time (µs).
  kServiceComplete = 18,
  /// subject=disk, arg0=demand+background queue depth after the transition.
  kQueueDepth = 19,
  /// subject=node, aux=background, arg0=offset, arg1=size.
  kNodeRead = 20,
  /// subject=node, arg0=offset, arg1=size.
  kNodeWrite = 21,

  // --- kFull --------------------------------------------------------------
  /// subject=node, aux=hit, arg0=block offset.
  kBlockLookup = 32,
  /// subject=node, arg0=block offset.
  kPrefetchIssued = 33,
  /// subject=node, arg0=disk request count.
  kDiskRequestsIssued = 34,
  /// subject=file, aux=is_write | num_pieces<<1, arg0=offset, arg1=size.
  kRequestRouted = 35,
  /// subject=process, aux=forced | theta_fallback<<1,
  /// arg0=slot | original<<32 (two uint32 halves), arg1=access id.
  kAccessPlaced = 36,
  /// subject=0, arg0=event sequence number.
  kEventDispatched = 37,
};

/// Minimum level at which `kind` is recorded.
[[nodiscard]] constexpr TraceLevel level_of(TraceEventKind kind) {
  const auto group = static_cast<std::uint16_t>(kind) / 16;
  return group == 0 ? TraceLevel::kState
                    : (group == 1 ? TraceLevel::kRequest : TraceLevel::kFull);
}

[[nodiscard]] const char* to_string(TraceEventKind kind);

struct TraceEvent {
  SimTime time = 0;  // µs, simulated
  std::uint16_t kind = 0;
  std::uint16_t subject = 0;
  std::uint32_t aux = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;

  [[nodiscard]] TraceEventKind event_kind() const {
    return static_cast<TraceEventKind>(kind);
  }
  /// arg0 as a bit-cast double (energy payloads).
  [[nodiscard]] double arg0_double() const {
    return std::bit_cast<double>(arg0);
  }
};

static_assert(sizeof(TraceEvent) == 32, "trace events are 32-byte records");
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/// Per-run telemetry knobs, carried inside ExperimentConfig.
struct TelemetryConfig {
  TraceLevel level = TraceLevel::kOff;
  /// Output directory for trace.bin / summary.json / trace.json; empty
  /// keeps the trace in memory only (the summary is still computed).
  std::string dir;

  [[nodiscard]] bool enabled() const { return level != TraceLevel::kOff; }
};

/// Structural metadata describing one recorded run; persisted in the trace
/// file header and embedded in the analytics summary.
struct TraceMeta {
  std::string app;
  int policy = 0;  // PolicyKind as int (telemetry stays decoupled from power)
  bool scheme = false;
  std::uint64_t seed = 0;
  int num_nodes = 0;
  int disks_per_node = 0;
  TraceLevel level = TraceLevel::kOff;
  /// Simulated end of accounting (set after finalize).
  SimTime end_time = 0;
};

}  // namespace dasched
