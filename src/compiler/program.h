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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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

struct CompiledProgram;

/// The slots of one process in one flat layout: all its ops in slot then
/// program order, slot s holding ops [first_op[s], first_op[s + 1]), and a
/// compute per slot.  A front end appends to the open slot until
/// `end_slot` closes it; only `freeze_program` rewrites the arrays.
class ProcessPlan {
 public:
  void add_op(const IoOp& op) { ops_.push_back(op); }
  void add_compute(SimTime usec) { open_compute_ += usec; }
  /// Closes the open slot, empty or not.
  void end_slot() {
    compute_.push_back(open_compute_);
    first_op_.push_back(static_cast<std::uint32_t>(ops_.size()));
    open_compute_ = 0;
  }
  /// True when the open slot has compute or ops.
  [[nodiscard]] bool slot_open() const {
    return open_compute_ != 0 || ops_.size() > first_op_.back();
  }
  /// Empties the plan for recording another process; keeps the capacity.
  void clear() {
    ops_.clear();
    first_op_.assign(1, 0);
    compute_.clear();
    open_compute_ = 0;
  }

  [[nodiscard]] Slot num_slots() const { return static_cast<Slot>(compute_.size()); }
  /// CPU time the process spends in slot `s` (excluding I/O waits).
  [[nodiscard]] SimTime compute(Slot s) const {
    return compute_[static_cast<std::size_t>(s)];
  }
  /// The I/O calls issued in slot `s`, in program order.
  [[nodiscard]] std::span<const IoOp> ops(Slot s) const {
    const auto i = static_cast<std::size_t>(s);
    return {ops_.data() + first_op_[i], ops_.data() + first_op_[i + 1]};
  }
  /// Flat index of the first op of slot `s`.
  [[nodiscard]] std::size_t first_op(Slot s) const {
    return first_op_[static_cast<std::size_t>(s)];
  }
  /// The op at flat index `i` (`AccessRecord::op_index`).
  [[nodiscard]] const IoOp& op(std::size_t i) const { return ops_[i]; }

 private:
  friend CompiledProgram freeze_program(std::vector<ProcessPlan> processes,
                                        int granularity);

  std::vector<IoOp> ops_;
  std::vector<std::uint32_t> first_op_ = {0};  // op_index is an int: < 2^31
  std::vector<SimTime> compute_;
  SimTime open_compute_ = 0;
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
  [[nodiscard]] const ProcessPlan& process(int p) const {
    return (*plan)[static_cast<std::size_t>(p)];
  }
};

}  // namespace dasched
