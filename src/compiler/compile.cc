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
  } else {
    out.scheduled.reserve(lowered.reads.size());
    for (const AccessRecord& rec : lowered.reads) {
      out.scheduled.push_back(ScheduledAccess{rec, rec.original, false});
    }
    out.sched_stats.scheduled = static_cast<std::int64_t>(out.scheduled.size());
  }
  out.table = SchedulingTable(out.scheduled);
  out.program = std::move(lowered);
  return out;
}

}  // namespace dasched
