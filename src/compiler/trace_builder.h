// Profiling front end (Sec. IV-A).
//
// When loop nests are non-affine or have symbolic bounds, the paper falls
// back to a profiling tool: run (or replay) the program once and record the
// per-iteration I/O behaviour.  `TraceBuilder` is that recorder — workloads
// drive it imperatively and the result lowers to the same `CompiledProgram`
// the affine path produces, so slack analysis and scheduling are shared.
#pragma once

#include <cassert>
#include <utility>
#include <vector>

#include "compiler/lower.h"
#include "compiler/program.h"

namespace dasched {

class TraceBuilder {
 public:
  explicit TraceBuilder(int num_processes) {
    assert(num_processes > 0);
    processes_.resize(static_cast<std::size_t>(num_processes));
    open_.resize(static_cast<std::size_t>(num_processes));
  }

  /// Records CPU time in the current slot of process `p`.
  void compute(int p, SimTime usec) { slot(p).compute += usec; }

  void read(int p, FileId file, Bytes offset, Bytes size) {
    slot(p).ops.push_back(IoOp{file, offset, size, false});
  }

  void write(int p, FileId file, Bytes offset, Bytes size) {
    slot(p).ops.push_back(IoOp{file, offset, size, true});
  }

  /// Ends the current slot ("iteration") of process `p`.
  void end_slot(int p) {
    auto& s = slot(p);
    processes_[static_cast<std::size_t>(p)].slots.push_back(std::move(s));
    s = SlotPlan{};
  }

  /// Ends the current slot of every process (a full parallel iteration).
  void end_iteration() {
    for (int p = 0; p < static_cast<int>(processes_.size()); ++p) end_slot(p);
  }

  /// Finishes recording: flushes non-empty open slots, then freezes the
  /// plans, optionally coarsened (the paper's d; see `freeze_program`).
  [[nodiscard]] CompiledProgram build(int granularity = 1) {
    for (std::size_t p = 0; p < processes_.size(); ++p) {
      auto& open = open_[p];
      if (open.compute != 0 || !open.ops.empty()) {
        processes_[p].slots.push_back(std::move(open));
        open = SlotPlan{};
      }
    }
    return freeze_program(std::move(processes_), granularity);
  }

 private:
  SlotPlan& slot(int p) {
    assert(p >= 0 && static_cast<std::size_t>(p) < open_.size());
    return open_[static_cast<std::size_t>(p)];
  }

  std::vector<ProcessPlan> processes_;
  std::vector<SlotPlan> open_;
};

}  // namespace dasched
