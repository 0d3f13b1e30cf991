#include "compiler/compile.h"

namespace dasched {

Compiled compile_trace(CompiledProgram lowered, const StripingMap& striping,
                       const CompileOptions& opts) {
  analyze_slacks(lowered, striping, opts.slack);

  Compiled out;
  if (opts.enable_scheduling && !lowered.reads.empty()) {
    AccessScheduler scheduler(striping.num_io_nodes(),
                              std::max<Slot>(lowered.num_slots, 1), opts.sched);
    scheduler.schedule_into(lowered.reads, out.scheduled);
    out.sched_stats = scheduler.stats();
    out.table = SchedulingTable(out.scheduled);
  } else {
    // Every read stays at its original point, and no scheduler thread walks
    // a table: there is nothing to place.
    out.sched_stats.scheduled = static_cast<std::int64_t>(lowered.reads.size());
  }
  out.program = std::move(lowered);
  return out;
}

}  // namespace dasched
