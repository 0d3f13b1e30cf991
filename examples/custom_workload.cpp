// Building your own workload with the affine loop-nest IR.
//
// This example writes a small out-of-core 2-D stencil (Jacobi sweep over
// row panels) directly against the public compiler API, compiles it, and
// inspects what the slack analysis discovered — the intra-process
// producer-consumer windows that make scheduling possible — before running
// it on the simulated cluster.
//
//   $ ./examples/custom_workload
#include <cstdio>

#include "compiler/compile.h"
#include "driver/experiment.h"
#include "io/cluster.h"
#include "storage/storage_system.h"
#include "util/table.h"

using namespace dasched;

namespace {

/// Double-buffered Jacobi: each half-step reads the panels the previous
/// half-step wrote into the other buffer, so every read carries a
/// producer-consumer slack of one full sweep (~R slots).
///
/// for t = 0..T/2-1:
///   for r = 0..R-1:  read A[r] (written last half-step); compute; write B[r]
///   for r = 0..R-1:  read B[r];                          compute; write A[r]
LoopProgram stencil(StripingMap& striping, int T, int R, int P) {
  using AE = AffineExpr;
  const std::int64_t panel = kib(256).count();
  const FileId grid_a = striping.create_file(
      "stencil.grid_a", (R) * P * panel);
  const FileId grid_b = striping.create_file(
      "stencil.grid_b", (R) * P * panel);

  const AE r = AE::var("r");
  const AE p = AE::var("p");

  auto sweep = [&](FileId src, FileId dst) {
    return make_loop(
        "r", 0, AE(R - 1),
        {
            make_loop("_io", 0, 0,
                      {
                          make_read(src, r * (P * panel) + p * panel, panel),
                          make_compute(AE(5'000)),
                          make_write(dst, r * (P * panel) + p * panel, panel),
                      },
                      /*slot_loop=*/true),
            // Compute-only iterations: the scheduler's room to manoeuvre.
            make_loop("_pad", 0, 2, {make_compute(AE(3'000))},
                      /*slot_loop=*/true),
        },
        /*slot_loop=*/false);
  };

  LoopProgram prog;
  prog.body.push_back(make_loop(
      "t", 0, AE(T / 2 - 1),
      {
          sweep(grid_a, grid_b),
          sweep(grid_b, grid_a),
          // Residual-norm reduction after each full step: an idle phase the
          // multi-speed policy can exploit.
          make_loop("_norm", 0, 0, {make_compute(AE(8'000'000))},
                    /*slot_loop=*/true),
      },
      /*slot_loop=*/false));
  return prog;
}

}  // namespace

int main() {
  std::printf("== custom workload: out-of-core Jacobi stencil ==\n\n");

  Simulator sim;
  StorageConfig scfg;
  scfg.node.policy = PolicyKind::kHistory;
  StorageSystem storage(sim, scfg);

  const int T = 12;
  const int R = 64;
  const int P = 8;
  const LoopProgram prog = stencil(storage.striping(), T, R, P);

  CompileOptions opts;
  opts.sched.delta = 20;
  opts.sched.theta = 4;
  const Compiled compiled =
      compile_trace(lower(prog, P), storage.striping(), opts);

  // What did the slack analysis find?
  std::int64_t input_reads = 0;
  std::int64_t bounded = 0;
  SummaryStats slack_len;
  for (const AccessRecord& rec : compiled.program.reads) {
    if (rec.writer_process < 0) {
      ++input_reads;
    } else {
      ++bounded;
      slack_len.add(static_cast<double>(rec.slack_length()));
    }
  }
  std::printf("reads: %zu (%lld first-touch, %lld producer-consumer)\n",
              compiled.program.reads.size(),
              static_cast<long long>(input_reads),
              static_cast<long long>(bounded));
  std::printf("producer-consumer slack: mean %.1f slots (~one full sweep of %d\n"
              "4-slot panel steps)\n",
              slack_len.mean(), R);
  std::printf("scheduling advanced accesses by %.1f slots on average\n\n",
              compiled.sched_stats.mean_advance_slots);

  Cluster cluster(sim, storage, compiled, RuntimeConfig{});
  cluster.run_to_completion();

  const StorageStats stats = storage.finalize();
  const RuntimeStats rt = cluster.stats();
  TextTable table({"metric", "value"});
  table.add_row({"simulated exec", TextTable::fmt(to_sec(cluster.exec_time()), 2) + " s"});
  table.add_row({"disk energy", TextTable::fmt(stats.energy_j.value() / 1'000.0, 2) + " kJ"});
  table.add_row({"prefetches", std::to_string(rt.prefetches)});
  table.add_row({"buffer hits", std::to_string(rt.buffer_hits)});
  table.add_row({"RPM transitions", std::to_string(stats.rpm_changes)});
  table.print();
  return 0;
}
