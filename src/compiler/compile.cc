#include "compiler/compile.h"

namespace dasched {

Compiled compile_trace(CompiledProgram lowered, const StripingMap& striping,
                       const CompileOptions& opts) {
  Compiled out;
  if (opts.enable_scheduling) {
    analyze_slacks(lowered, striping, opts.slack);
    if (!lowered.reads.empty()) {
      AccessScheduler scheduler(striping.num_io_nodes(),
                                std::max<Slot>(lowered.num_slots, 1),
                                opts.sched);
      scheduler.schedule_into(lowered.reads, out.scheduled);
      out.sched_stats = scheduler.stats();
      out.table = SchedulingTable(out.scheduled);
    }
  } else {
    // Every read stays at its original point and no scheduler thread walks
    // a table, so nothing reads slack records: the compile is the plan.
    out.sched_stats.scheduled = lowered.num_reads;
  }
  out.program = std::move(lowered);
  return out;
}

}  // namespace dasched
