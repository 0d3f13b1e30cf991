// Lowering: affine loop-nest IR -> per-process slot plans.
//
// This is the replacement for the paper's Phoenix/Omega front end: because
// every bound and subscript is affine and the iteration spaces we simulate
// are bounded, exact enumeration produces the same per-iteration facts the
// polyhedral tooling would.  The interpreter also applies the paper's slot
// coarsening: when a loop is large, `granularity` (the paper's d > 1)
// consecutive fine slots are merged into one scheduling slot.
#pragma once

#include <cstdint>
#include <vector>

#include "compiler/loop_program.h"
#include "compiler/program.h"

namespace dasched {

struct LowerOptions {
  /// The paper's d: fine slots merged per scheduling slot.
  int granularity = 1;
  /// Safety valve against runaway iteration spaces.
  std::int64_t max_slots_per_process = 2'000'000;

  friend bool operator==(const LowerOptions&, const LowerOptions&) = default;
};

/// Unrolls `program` for each of `num_processes` processes (binding p and P)
/// and returns the frozen slot plans.  Throws std::runtime_error when a
/// process exceeds max_slots_per_process.
[[nodiscard]] CompiledProgram lower(const LoopProgram& program, int num_processes,
                                    const LowerOptions& opts = {});

/// The exit of every front end (`lower` and the profiling recorder): merges
/// groups of `granularity` consecutive slots per process (the paper's d),
/// pads every process to the longest, stamps each read op's `access_id` in
/// the order the slack analysis walks them (slot, then process, then op),
/// and freezes the plans behind the program's shared const handle.
[[nodiscard]] CompiledProgram freeze_program(std::vector<ProcessPlan> processes,
                                             int granularity);

}  // namespace dasched
