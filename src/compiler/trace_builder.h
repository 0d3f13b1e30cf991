// Profiling front end (Sec. IV-A).
//
// When loop nests are non-affine or have symbolic bounds, the paper falls
// back to a profiling tool: run (or replay) the program once and record the
// per-iteration I/O behaviour.  `TraceBuilder` is that recorder — workloads
// drive it imperatively and the result lowers to the same `CompiledProgram`
// the affine path produces, so slack analysis and scheduling are shared.
// Each process records straight into the open slot of its `ProcessPlan`.
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
  }

  /// Records CPU time in the current slot of process `p`.
  void compute(int p, SimTime usec) { process(p).add_compute(usec); }

  void read(int p, FileId file, Bytes offset, Bytes size) {
    process(p).add_op(IoOp{file, offset, size, false});
  }

  void write(int p, FileId file, Bytes offset, Bytes size) {
    process(p).add_op(IoOp{file, offset, size, true});
  }

  /// Ends the current slot ("iteration") of process `p`.
  void end_slot(int p) { process(p).end_slot(); }

  /// Ends the current slot of every process (a full parallel iteration).
  void end_iteration() {
    for (ProcessPlan& plan : processes_) plan.end_slot();
  }

  /// Finishes recording: closes non-empty open slots, then freezes the
  /// plans, optionally coarsened (the paper's d; see `freeze_program`).
  [[nodiscard]] CompiledProgram build(int granularity = 1) {
    for (ProcessPlan& plan : processes_) {
      if (plan.slot_open()) plan.end_slot();
    }
    return freeze_program(std::move(processes_), granularity);
  }

 private:
  ProcessPlan& process(int p) {
    assert(p >= 0 && static_cast<std::size_t>(p) < processes_.size());
    return processes_[static_cast<std::size_t>(p)];
  }

  std::vector<ProcessPlan> processes_;
};

}  // namespace dasched
