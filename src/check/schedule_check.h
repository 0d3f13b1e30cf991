// Scheduling-table consistency (invariant 3 of the audit catalog).
//
// Validates the compiler's artifacts rather than tapping a simulation layer:
// slack windows must be well-formed (the "negative slack becomes a slack of
// length 1" clamp always applied, every slot index inside the d-coarsened
// slot space), chosen scheduling points must respect slacks and per-process
// exclusivity (no slot double-booking except explicitly `forced` pins), the
// per-access `forced` / `theta_fallback` flags must add up to the
// scheduler's counters, the theta cap must hold whenever the scheduler
// reported no fallbacks, and the
// per-process tables the runtime walks must index every placement exactly
// once, in the order the runtime expects.
#pragma once

#include <vector>

#include "check/audit.h"
#include "compiler/compile.h"
#include "core/access.h"
#include "core/scheduler.h"
#include "core/scheduling_table.h"

namespace dasched {

class ScheduleConsistencyCheck final : public InvariantCheck {
 public:
  explicit ScheduleConsistencyCheck(SimAuditor& auditor)
      : InvariantCheck(auditor) {}

  [[nodiscard]] const char* name() const override {
    return "schedule-consistency";
  }

  /// Runs every sub-check against one compiled program, built by
  /// `compile_trace` with `opts` over `striping`.  A baseline compile
  /// (`opts.enable_scheduling == false`: every access stays at its original
  /// point) holds no records, placements or table, so the audit analyzes
  /// the slacks of its plan itself and checks those records alone.  A
  /// compile with a placement count other than its read count fails before
  /// the placement checks.
  void validate(const Compiled& compiled, const CompileOptions& opts,
                const StripingMap& striping);

  // Individual sub-checks (also driven directly by the unit tests) ----------

  /// Slack windows well-formed and inside [0, num_slots).
  void check_records(const std::vector<AccessRecord>& records, Slot num_slots);

  // The placement checks pair row i of `scheduled` with `records[i]`, the
  // access it places; `records` holds at least as many rows.

  /// Each row places its own record; chosen slots inside slacks; forced
  /// pins at their original points.
  void check_placements(const std::vector<AccessRecord>& records,
                        const std::vector<ScheduledAccess>& scheduled,
                        Slot num_slots);

  /// Per process, at most one non-forced access per slot.
  void check_double_booking(const std::vector<AccessRecord>& records,
                            const std::vector<ScheduledAccess>& scheduled);

  /// The per-access flags agree with the counters: as many `forced` flags
  /// as `stats.forced`, as many `theta_fallback` flags as
  /// `stats.theta_fallbacks`.
  void check_flags(const std::vector<ScheduledAccess>& scheduled,
                   const ScheduleStats& stats);

  /// Theta cap on per-node per-slot access counts.
  void check_theta(const std::vector<AccessRecord>& records,
                   const std::vector<ScheduledAccess>& scheduled,
                   const ScheduleOptions& opts, const ScheduleStats& stats);

  /// The table indexes every row of `scheduled` exactly once, under its
  /// own process, in (slot, id) order; row i holds access i.
  void check_table(const SchedulingTable& table,
                   const std::vector<ScheduledAccess>& scheduled);
};

}  // namespace dasched
