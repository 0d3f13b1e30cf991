// The lowered (per-process, per-slot) form of a parallel I/O program.
//
// Both compiler front ends — the affine loop-nest interpreter and the
// profiling trace recorder — lower to this representation: for every process,
// an ordered list of scheduling slots ("iterations"), each with a compute
// duration and the I/O operations the original program issues there.  The
// slack analysis, the scheduling algorithms and the runtime all consume this
// form.  Each front end ends in `freeze_program` (lower.h), which numbers
// the reads and freezes the slot plans behind a shared const handle: no
// later stage writes them, so every compile of one workload shares them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/access.h"
#include "storage/striping.h"
#include "util/units.h"

namespace dasched {

/// One I/O call as issued by the program.
struct IoOp {
  FileId file = 0;
  Bytes offset = 0;
  Bytes size = 0;
  bool is_write = false;
  /// Index of this read in `CompiledProgram::reads`, numbered when the
  /// program is frozen; -1 for writes.
  int access_id = -1;
};
// The runtime walks ops slot by slot; the id rides in former padding.
static_assert(sizeof(IoOp) == 32);

/// One scheduling slot of one process.
struct SlotPlan {
  /// CPU time the process spends in this slot (excluding I/O waits).
  SimTime compute = 0;
  /// I/O calls issued in this slot, in program order.
  std::vector<IoOp> ops;
};

struct ProcessPlan {
  std::vector<SlotPlan> slots;
};

struct CompiledProgram {
  /// The frozen slot plans, one per process, each padded to `num_slots`.
  /// Copying a program copies this handle, not the plans.
  std::shared_ptr<const std::vector<ProcessPlan>> plan;
  /// Aligned slot count: every process is padded to this length.
  Slot num_slots = 0;
  /// Read ops in the plan; their access ids are [0, num_reads).
  int num_reads = 0;

  /// Schedulable read accesses (output of the slack analysis), indexed by
  /// AccessRecord::id, which is the read op's access_id.
  std::vector<AccessRecord> reads;

  [[nodiscard]] int num_processes() const {
    return plan == nullptr ? 0 : static_cast<int>(plan->size());
  }
  [[nodiscard]] const std::vector<SlotPlan>& slots(int process) const {
    return (*plan)[static_cast<std::size_t>(process)].slots;
  }
};

}  // namespace dasched
