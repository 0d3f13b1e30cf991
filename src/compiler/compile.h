// The full compiler pipeline (Fig. 4, left half).
//
//   loop-nest IR (or recorded trace)
//     -> lowering / coarsening          (lower.h)
//     -> access slack determination     (slack.h)
//     -> data access scheduling         (core/scheduler.h)
//     -> scheduling table               (core/scheduling_table.h)
//
// Every front end produces a lowered `CompiledProgram` first — an affine
// loop nest through `lower()`, an application through `App::build`, an
// external trace through the replay parser — and `compile_trace` runs the
// rest.  The lowered slot plans are frozen and numbered once, at the front
// end's exit; every compile of them shares the one plan.  A scheme-on
// result bundles everything the runtime needs: a handle to the plan the
// client processes execute, the slack-analyzed read records, each read's
// placement, and the per-process tables of row indices the runtime
// scheduler threads follow.  A scheme-off result is the plan handle alone
// (the paper's "without our approach" runs execute the original program):
// no slack is analyzed, since only a scheduler or the auditor reads the
// records, and the auditor builds its own (check/install.h).
#pragma once

#include "compiler/loop_program.h"
#include "compiler/lower.h"
#include "compiler/program.h"
#include "compiler/slack.h"
#include "core/scheduler.h"
#include "core/scheduling_table.h"

namespace dasched {

struct CompileOptions {
  ScheduleOptions sched;
  SlackOptions slack;
  /// When false the pipeline stops before slack analysis and every access
  /// stays at its original point — the paper's baseline runs.
  bool enable_scheduling = true;

  /// Member-wise; lets compile caches key on "would this produce the same
  /// output".
  friend bool operator==(const CompileOptions&, const CompileOptions&) =
      default;
};

struct Compiled {
  /// The shared frozen plan plus this compile's read records (none with
  /// scheduling disabled).
  CompiledProgram program;
  /// Per-access decisions, row i for read i (ids are dense and in order).
  /// With scheduling disabled it and `table` stay empty, and
  /// `sched_stats.scheduled` is the plan's read count.
  std::vector<ScheduledAccess> scheduled;
  SchedulingTable table;  // per-process row indices into `scheduled`
  ScheduleStats sched_stats;
};

/// An already-lowered program -> slacks -> schedule -> table, or with
/// `opts.enable_scheduling == false` the program alone.  Coarsening and
/// read numbering happen in the front end (`lower()`, the app builder, or
/// the recorder); an affine nest compiles as
/// `compile_trace(lower(prog, n), striping)`.  Passing a program by copy
/// shares its plan: only the read records are this compile's own.
[[nodiscard]] Compiled compile_trace(CompiledProgram lowered,
                                     const StripingMap& striping,
                                     const CompileOptions& opts = {});

}  // namespace dasched
