#include "compiler/lower.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace dasched {

namespace {

// `lower` compiles the loop nest once, then runs it per process.  Every
// variable name gets an environment slot (p and P first), every affine
// expression becomes a row of (slot, coefficient) terms in the expression's
// name order, and the per-process interpreter evaluates rows over a flat
// value array with a bound flag per slot — no name is looked up while
// enumerating iterations.

struct Term {
  std::uint32_t slot;
  std::int64_t coeff;
};

struct Row {
  std::int64_t constant;
  std::uint32_t first;  // into Program::terms
  std::uint32_t count;
};

enum class Kind : std::uint8_t { kIo, kCompute, kLoop };

/// One statement; a loop's body is the contiguous range
/// [body_begin, body_end) of `Program::stmts`.
struct CStmt {
  Kind kind;
  bool flag;  // kIo: is_write; kLoop: slot_loop
  FileId file;
  std::uint32_t var;  // kLoop: the loop variable's slot
  std::uint32_t a;    // kIo: offset row; kCompute: usec row; kLoop: lower row
  std::uint32_t b;    // kIo: size row; kLoop: upper row
  std::int64_t step;
  std::uint32_t body_begin;
  std::uint32_t body_end;
};

struct Program {
  std::vector<std::string> names;  // by slot
  std::vector<Term> terms;
  std::vector<Row> rows;
  std::vector<CStmt> stmts;
  std::uint32_t top_end = 0;  // the program body is [0, top_end)
};

class Compiler {
 public:
  Program compile(const LoopProgram& program) {
    (void)slot_of(kProcessVar);
    (void)slot_of(kProcessCountVar);
    out_.top_end = static_cast<std::uint32_t>(program.body.size());
    compile_list(program.body);
    return std::move(out_);
  }

 private:
  std::uint32_t slot_of(const std::string& name) {
    const auto [it, inserted] =
        slots_.try_emplace(name, static_cast<std::uint32_t>(out_.names.size()));
    if (inserted) out_.names.push_back(name);
    return it->second;
  }

  std::uint32_t row_of(const AffineExpr& e) {
    const Row row{e.constant(), static_cast<std::uint32_t>(out_.terms.size()),
                  static_cast<std::uint32_t>(e.terms().size())};
    for (const auto& [name, coeff] : e.terms()) {
      out_.terms.push_back(Term{slot_of(name), coeff});
    }
    out_.rows.push_back(row);
    return static_cast<std::uint32_t>(out_.rows.size() - 1);
  }

  /// Lays `list` out as one contiguous range, then each loop body after it.
  void compile_list(const StmtList& list) {
    const auto begin = static_cast<std::uint32_t>(out_.stmts.size());
    out_.stmts.resize(out_.stmts.size() + list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::size_t at = begin + i;
      std::visit([&](const auto& node) { compile_node(node, at); }, list[i].node);
    }
  }

  void compile_node(const IoCallStmt& io, std::size_t at) {
    const std::uint32_t offset = row_of(io.offset);
    const std::uint32_t size = row_of(io.size);
    out_.stmts[at] = CStmt{Kind::kIo, io.is_write, io.file, 0, offset, size, 0, 0, 0};
  }

  void compile_node(const ComputeStmt& c, std::size_t at) {
    out_.stmts[at] = CStmt{Kind::kCompute, false, 0, 0, row_of(c.usec), 0, 0, 0, 0};
  }

  void compile_node(const LoopStmt& loop, std::size_t at) {
    const std::uint32_t lower = row_of(loop.lower);
    const std::uint32_t upper = row_of(loop.upper);
    const std::uint32_t var = slot_of(loop.var);
    const auto body_begin = static_cast<std::uint32_t>(out_.stmts.size());
    compile_list(loop.body);
    out_.stmts[at] = CStmt{Kind::kLoop, loop.slot_loop, 0, var, lower, upper,
                           loop.step, body_begin,
                           body_begin + static_cast<std::uint32_t>(loop.body.size())};
  }

  std::map<std::string, std::uint32_t> slots_;
  Program out_;
};

class Interpreter {
 public:
  Interpreter(const Program& program, const LowerOptions& opts)
      : prog_(program), opts_(opts), value_(program.names.size()),
        bound_(program.names.size()) {}

  /// Records into one reused buffer and returns an exact-size copy of it.
  ProcessPlan run(int process, int num_processes) {
    std::fill(bound_.begin(), bound_.end(), 0);
    bind(0, process);
    bind(1, num_processes);
    plan_.clear();
    exec_range(0, prog_.top_end);
    close_slot();
    return plan_;
  }

 private:
  void bind(std::uint32_t slot, std::int64_t v) {
    value_[slot] = v;
    bound_[slot] = 1;
  }

  std::int64_t eval(std::uint32_t r) const {
    const Row& row = prog_.rows[r];
    std::int64_t v = row.constant;
    for (std::uint32_t t = row.first; t < row.first + row.count; ++t) {
      const Term& term = prog_.terms[t];
      if (bound_[term.slot] == 0) {
        throw std::out_of_range("AffineExpr::eval: unbound variable '" +
                                prog_.names[term.slot] + "'");
      }
      v += term.coeff * value_[term.slot];
    }
    return v;
  }

  void exec_range(std::uint32_t begin, std::uint32_t end) {
    for (std::uint32_t i = begin; i < end; ++i) exec(prog_.stmts[i]);
  }

  void exec(const CStmt& s) {
    switch (s.kind) {
      case Kind::kIo: {
        const std::int64_t offset = eval(s.a);
        plan_.add_op(IoOp{s.file, offset, eval(s.b), s.flag});
        return;
      }
      case Kind::kCompute:
        plan_.add_compute(eval(s.a));
        return;
      case Kind::kLoop:
        exec_loop(s);
        return;
    }
  }

  void exec_loop(const CStmt& loop) {
    const std::int64_t lo = eval(loop.a);
    const std::int64_t hi = eval(loop.b);
    if (loop.step <= 0) throw std::runtime_error("lower: loop step must be > 0");
    const std::int64_t saved_value = value_[loop.var];
    const std::uint8_t saved_bound = bound_[loop.var];
    bound_[loop.var] = 1;
    for (std::int64_t v = lo; v <= hi; v += loop.step) {
      value_[loop.var] = v;
      exec_range(loop.body_begin, loop.body_end);
      if (loop.flag) close_slot();
    }
    value_[loop.var] = saved_value;
    bound_[loop.var] = saved_bound;
  }

  /// Closes the open slot unless it is empty.
  void close_slot() {
    if (!plan_.slot_open()) return;
    plan_.end_slot();
    if (plan_.num_slots() > opts_.max_slots_per_process) {
      throw std::runtime_error("lower: iteration space exceeds max_slots_per_process");
    }
  }

  const Program& prog_;
  LowerOptions opts_;
  std::vector<std::int64_t> value_;  // by slot
  std::vector<std::uint8_t> bound_;  // by slot
  ProcessPlan plan_;
};

}  // namespace

CompiledProgram freeze_program(std::vector<ProcessPlan> processes,
                               int granularity) {
  // Coarsening before padding merges no padding, and the padded tails come
  // out the same: a group that is all padding is an empty slot either way.
  std::size_t num_slots = 0;
  for (ProcessPlan& p : processes) {
    assert(!p.slot_open());
    if (granularity > 1) {
      // Keep every d-th offset and sum each group's compute, in place: step
      // s reads slot s, and earlier steps wrote only slots below s.
      const auto d = static_cast<std::size_t>(granularity);
      const std::size_t n = p.compute_.size();
      for (std::size_t s = 0; s < n; ++s) {
        if (s % d == 0) {
          p.compute_[s / d] = p.compute_[s];
          p.first_op_[s / d] = p.first_op_[s];
        } else {
          p.compute_[s / d] += p.compute_[s];
        }
      }
      p.compute_.resize((n + d - 1) / d);
      p.first_op_[p.compute_.size()] = p.first_op_[n];
      p.first_op_.resize(p.compute_.size() + 1);
    }
    num_slots = std::max(num_slots, p.compute_.size());
  }
  for (ProcessPlan& p : processes) {
    p.compute_.resize(num_slots, 0);
    p.first_op_.resize(num_slots + 1, static_cast<std::uint32_t>(p.ops_.size()));
  }
  int next_id = 0;
  for (std::size_t t = 0; t < num_slots; ++t) {
    for (ProcessPlan& p : processes) {
      for (std::uint32_t i = p.first_op_[t]; i < p.first_op_[t + 1]; ++i) {
        IoOp& op = p.ops_[i];
        if (!op.is_write) op.access_id = next_id++;
      }
    }
  }
  CompiledProgram out;
  out.num_slots = static_cast<Slot>(num_slots);
  out.num_reads = next_id;
  out.plan = std::make_shared<const std::vector<ProcessPlan>>(std::move(processes));
  return out;
}

CompiledProgram lower(const LoopProgram& program, int num_processes,
                      const LowerOptions& opts) {
  const Program compiled = Compiler().compile(program);
  Interpreter interp(compiled, opts);
  std::vector<ProcessPlan> processes;
  processes.reserve(static_cast<std::size_t>(num_processes));
  for (int p = 0; p < num_processes; ++p) {
    processes.push_back(interp.run(p, num_processes));
  }
  return freeze_program(std::move(processes), opts.granularity);
}

}  // namespace dasched
