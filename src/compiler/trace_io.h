// Text dump of lowered programs (`dasched_run --dump-trace`).
//
// Writes the slot plans of a lowered program as a line-oriented,
// diff-friendly text file, for inspecting what a workload builder produced:
//
//   dasched-trace 1
//   processes <N>
//   process <p>
//   slot <compute_usec>
//   r <file> <offset> <size>
//   w <file> <offset> <size>
//
// Every `slot` line opens a new slot of the current process; `r`/`w` lines
// append operations to it.  Files appear by id, not by name, so the dump
// is for reading, not for replay (external traces replay through
// workload/trace_replay.h).
#pragma once

#include <iosfwd>

#include "compiler/program.h"

namespace dasched {

/// Writes the slot plans of `program` (analysis results are not written).
void save_trace(const CompiledProgram& program, std::ostream& out);

}  // namespace dasched
