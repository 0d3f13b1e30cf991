#include "compiler/trace_io.h"

#include <ostream>

namespace dasched {

void save_trace(const CompiledProgram& program, std::ostream& out) {
  out << "dasched-trace 1\n";
  out << "processes " << program.num_processes() << '\n';
  for (int p = 0; p < program.num_processes(); ++p) {
    out << "process " << p << '\n';
    for (const SlotPlan& slot : program.slots(p)) {
      out << "slot " << slot.compute << '\n';
      for (const IoOp& op : slot.ops) {
        out << (op.is_write ? 'w' : 'r') << ' ' << op.file << ' ' << op.offset
            << ' ' << op.size << '\n';
      }
    }
  }
}

}  // namespace dasched
