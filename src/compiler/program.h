// The lowered (per-process, per-slot) form of a parallel I/O program.
//
// Both compiler front ends — the affine loop-nest interpreter and the
// profiling trace recorder — lower to this representation: for every process,
// an ordered list of scheduling slots ("iterations"), each with a compute
// duration and the I/O operations the original program issues there.  The
// slack analysis, the scheduling algorithms and the runtime all consume this
// form.
#pragma once

#include <cstdint>
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
  /// Index of this read in `CompiledProgram::reads` (set by the slack
  /// analysis); -1 for writes and for programs not yet analyzed.
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

/// Location of a read site in the lowered program: (process, slot, op index).
struct ReadSite {
  int process = 0;
  Slot slot = 0;
  int op_index = 0;
};

struct CompiledProgram {
  std::vector<ProcessPlan> processes;
  /// Aligned slot count: every process is padded to this length.
  Slot num_slots = 0;

  /// Schedulable read accesses (output of the slack analysis), indexed by
  /// AccessRecord::id.
  std::vector<AccessRecord> reads;
  /// reads[i] corresponds to read_sites[i] in the lowered program.
  std::vector<ReadSite> read_sites;

  [[nodiscard]] int num_processes() const {
    return static_cast<int>(processes.size());
  }

  /// Pads every process to the length of the longest one and records it.
  void align_slots() {
    std::size_t max_len = 0;
    for (const auto& p : processes) max_len = std::max(max_len, p.slots.size());
    for (auto& p : processes) p.slots.resize(max_len);
    num_slots = static_cast<Slot>(max_len);
  }

  /// Totals, mostly for reports and tests.
  [[nodiscard]] std::int64_t total_ops() const {
    std::int64_t n = 0;
    for (const auto& p : processes)
      for (const auto& s : p.slots) n += static_cast<std::int64_t>(s.ops.size());
    return n;
  }
  [[nodiscard]] Bytes total_bytes(bool writes) const {
    Bytes n = 0;
    for (const auto& p : processes)
      for (const auto& s : p.slots)
        for (const auto& op : s.ops)
          if (op.is_write == writes) n += op.size;
    return n;
  }
};

}  // namespace dasched
