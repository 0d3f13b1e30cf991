#include "compiler/trace_io.h"

#include <ostream>

namespace dasched {

void save_trace(const CompiledProgram& program, std::ostream& out) {
  out << "dasched-trace 1\n";
  out << "processes " << program.num_processes() << '\n';
  for (int p = 0; p < program.num_processes(); ++p) {
    out << "process " << p << '\n';
    const ProcessPlan& plan = program.process(p);
    for (Slot s = 0; s < plan.num_slots(); ++s) {
      out << "slot " << plan.compute(s) << '\n';
      for (const IoOp& op : plan.ops(s)) {
        out << (op.is_write ? 'w' : 'r') << ' ' << op.file << ' ' << op.offset
            << ' ' << op.size << '\n';
      }
    }
  }
}

}  // namespace dasched
