// Quickstart: the paper's running example (Fig. 5), end to end.
//
// Builds the out-of-core matrix multiplication of Fig. 5 in the affine
// loop-nest IR, compiles it (slack analysis + data access scheduling), shows
// a slice of the generated scheduling table, then simulates the program on
// the Table II storage architecture with a history-based multi-speed policy,
// with and without the compiler-directed scheme.
//
//   $ ./examples/quickstart
#include <cstdint>
#include <cstdio>

#include "compiler/compile.h"
#include "driver/experiment.h"
#include "io/cluster.h"
#include "power/policies.h"
#include "storage/storage_system.h"
#include "util/table.h"

using namespace dasched;

namespace {

/// Fig. 5: files U, V, W of R x R blocks; each process owns a band of rows.
///   for m = 1, R:   read next block of U
///     for n = 1, R: read next block of V; compute; write block of W
/// Iterations are finer than the I/O calls (compute-only pad slots), which
/// is what gives the scheduler room to move accesses; a mid-run checkpoint
/// phase provides the idleness the power policy exploits.
LoopProgram matmul(StripingMap& striping, int R, std::int64_t block, int P) {
  const FileId u = striping.create_file("U", (R) * R * block);
  const FileId v_file = striping.create_file("V", (R) * R * block);
  const FileId w = striping.create_file("W", (R) * R * block);

  using AE = AffineExpr;
  const AE m = AE::var("m");
  const AE n = AE::var("n");
  const AE p = AE::var("p");
  const int rows_per_proc = R / P;

  auto rows = [&](AE lo, AE hi) {
    return make_loop(
        "m", lo, hi,
        {
            make_loop("_u", 0, 0,
                      {make_read(u, m * (R * block) + n * 0 + 0, block),
                       make_compute(AE(8'000))},
                      /*slot_loop=*/true),
            make_loop("n", 0, AE(R - 1),
                      {
                          make_loop("_v", 0, 0,
                                    {make_read(v_file,
                                               n * (R * block) + n * block,
                                               block),
                                     make_compute(AE(8'000))},
                                    /*slot_loop=*/true),
                          make_loop("_pad", 0, 1, {make_compute(AE(6'000))},
                                    /*slot_loop=*/true),
                          make_loop("_w", 0, 0,
                                    {make_compute(AE(6'000)),
                                     make_write(w,
                                                m * (R * block) + n * block,
                                                block)},
                                    /*slot_loop=*/true),
                      },
                      /*slot_loop=*/false),
            // Row-band flush: a short compute-only stretch.
            make_loop("_d", 0, 0, {make_compute(AE(2'500'000))},
                      /*slot_loop=*/true),
        },
        /*slot_loop=*/false);
  };

  LoopProgram prog;
  prog.body.push_back(rows(p * rows_per_proc,
                           p * rows_per_proc + (rows_per_proc / 2 - 1)));
  // Mid-run checkpoint: the long idle phase.
  prog.body.push_back(make_loop("_ck", 0, 0, {make_compute(AE(40'000'000))},
                                /*slot_loop=*/true));
  prog.body.push_back(rows(p * rows_per_proc + rows_per_proc / 2,
                           p * rows_per_proc + (rows_per_proc - 1)));
  return prog;
}

double run(PolicyKind policy, bool scheme, double* exec_minutes) {
  Simulator sim;
  StorageConfig scfg = StorageConfig::paper_defaults();
  scfg.node.policy = policy;
  StorageSystem storage(sim, scfg);

  const int R = 64;
  const int P = 8;
  LoopProgram prog = matmul(storage.striping(), R, kib(128).count(), P);

  CompileOptions copts;
  copts.enable_scheduling = scheme;
  copts.slack.max_slack = 128;
  Compiled compiled = compile_trace(lower(prog, P), storage.striping(), copts);

  if (scheme && exec_minutes == nullptr) {
    std::printf("scheduling table (process 0, first 6 entries):\n");
    int shown = 0;
    for (const std::uint32_t row : compiled.table.entries(0)) {
      if (++shown > 6) break;
      const AccessRecord& rec = compiled.program.reads[row];
      std::printf("  slot %-5lld access#%-5d sig %s  slack [%lld, %lld]\n",
                  static_cast<long long>(compiled.scheduled[row].slot), rec.id,
                  rec.sig.to_string().c_str(),
                  static_cast<long long>(rec.begin),
                  static_cast<long long>(rec.end));
    }
  }

  RuntimeConfig rt;
  rt.use_runtime_scheduler = scheme;
  Cluster cluster(sim, storage, compiled, rt);
  cluster.run_to_completion();

  StorageStats stats = storage.finalize();
  if (exec_minutes != nullptr) *exec_minutes = to_minutes(cluster.exec_time());
  return stats.energy_j.value();
}

}  // namespace

int main() {
  std::printf("== quickstart: Fig. 5 matrix multiplication ==\n\n");

  // Show the compiler output once.
  run(PolicyKind::kHistory, /*scheme=*/true, nullptr);
  std::printf("\n");

  TextTable table({"configuration", "disk energy (J)", "exec (min)",
                   "energy vs default"});
  double exec = 0.0;
  const double base = run(PolicyKind::kNone, false, &exec);
  table.add_row({"default (no policy)", TextTable::fmt(base, 1),
                 TextTable::fmt(exec, 2), "100.0%"});
  for (bool scheme : {false, true}) {
    const double e = run(PolicyKind::kHistory, scheme, &exec);
    table.add_row({scheme ? "history + scheduling" : "history-based DRPM",
                   TextTable::fmt(e, 1), TextTable::fmt(exec, 2),
                   TextTable::pct(e / base)});
  }
  table.print();
  return 0;
}
