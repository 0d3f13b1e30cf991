// Access records: the unit of work the scheduling algorithms operate on.
//
// The compiler front end (src/compiler) lowers each read I/O call into one
// `AccessRecord` carrying its slack window (in scheduling slots), its length
// (slots the access takes to complete; 1 for the basic algorithm) and its
// I/O-node signature.
#pragma once

#include <cstdint>
#include <vector>

#include "core/signature.h"

namespace dasched {

/// A scheduling slot index ("iteration" in the paper's terminology).
using Slot = std::int64_t;

struct AccessRecord {
  /// Unique id; also used as the deterministic tie-break in sorting.
  int id = 0;
  /// Issuing process (client node).  Only one access per process may occupy
  /// a slot.
  int process = 0;
  /// Slack window [begin, end], inclusive.  Negative slacks are clamped by
  /// the compiler before records are created, so begin <= end always holds.
  Slot begin = 0;
  Slot end = 0;
  /// Number of slots the access occupies (>= 1).
  int length = 1;
  /// Flat index of the read among all ops of its process's plan
  /// (`ProcessPlan::op`), so the runtime finds the op from the record.
  int op_index = 0;
  /// I/O nodes the access touches.
  Signature sig;
  /// The slot where the unmodified program issues this access (its read
  /// point) — used by the runtime to decide whether a prefetch is worthwhile.
  Slot original = 0;
  /// Producer of the data, when it is written during the program: the
  /// process and slot of the last preceding write.  The runtime scheduler
  /// checks the writer's local time before prefetching (Sec. III).  -1 when
  /// the data is program input (never written).
  int writer_process = -1;
  Slot writer_slot = -1;

  [[nodiscard]] Slot slack_length() const { return end - begin + 1; }
  /// Latest slot the access may start at and still finish inside its slack.
  [[nodiscard]] Slot latest_start() const { return end - (length - 1); }
};
// `op_index` rides in the padding after `length`.
static_assert(sizeof(AccessRecord) == 96);

/// The outcome of scheduling one access: where it goes, and nothing else.
/// Row i of a placement vector is access i, so a reader that needs the
/// slack, length, signature, original point or writer reads `reads[i]`.
struct ScheduledAccess {
  ScheduledAccess() = default;
  /// The placement of `rec` at `slot`.
  ScheduledAccess(const AccessRecord& rec, Slot slot, bool forced = false)
      : id(rec.id), process(rec.process), slot(slot), forced(forced) {}

  int id = 0;
  int process = 0;
  /// Chosen scheduling point (start slot).
  Slot slot = 0;
  /// True when the slack was so congested that no same-process-free slot
  /// existed and the access was pinned to its original point.
  bool forced = false;
  /// True when no candidate kept every I/O node within θ and the slot was
  /// chosen by the average-excess rule E_t (Sec. IV-B3).
  bool theta_fallback = false;
};
static_assert(sizeof(ScheduledAccess) <= 24);

}  // namespace dasched
