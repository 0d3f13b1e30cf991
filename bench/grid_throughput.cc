// A/B throughput harness for workspace reuse on the grid (BENCH_grid.json).
//
// Runs one small-cell grid — the shape where per-cell setup cost dominates
// and cross-run reuse pays — twice per repetition: once "fresh", calling
// run_experiment(cell.config) per cell so every cell builds its own
// simulator/storage/workload/compile anew, and once through
// run_grid, whose worker reuses one ExperimentWorkspace (warm pools +
// compile cache) across cells.  Reports the median wall-clock,
// cells/second, and the reuse:fresh speedup per mode as JSON on stdout.
// The per-cell results are bit-identical across modes
// (tests/driver/workspace_shape_test.cc), so the only thing varying here is
// wall-clock.  Runs on one thread so the medians measure the per-cell cost,
// not the host's scheduler.
//
// Knobs (strictly parsed): DASCHED_BENCH_REPS (default 5),
// DASCHED_BENCH_SCALE (default 0.1), DASCHED_BENCH_PROCS (default 4).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "engine/experiment_grid.h"
#include "engine/grid_runner.h"

using namespace dasched;

namespace {

/// Small-cell grid: 2 apps x 2 policies x 2 schemes = 8 cells.  The policy
/// axis is where the compile cache earns its keep — cells differing only in
/// policy share a compiled schedule under reuse.
ExperimentGrid bench_grid(double scale, int procs) {
  ExperimentGrid grid;
  grid.base.scale.factor = scale;
  grid.base.scale.num_processes = procs;
  grid.apps = {"sar", "madbench2"};
  grid.policies = {PolicyKind::kHistory, PolicyKind::kSimple};
  grid.schemes = {false, true};
  return grid;
}

double run_once(const ExperimentGrid& grid, bool reuse) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t cells = 0;
  if (reuse) {
    GridRunOptions opts;
    opts.threads = 1;
    cells = run_grid(grid, opts).size();
  } else {
    for (const GridCell& cell : grid.cells()) {
      (void)run_experiment(cell.config);
      ++cells;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (cells != grid.size()) {
    std::fprintf(stderr, "grid returned %zu of %zu cells\n", cells,
                 grid.size());
    std::exit(2);
  }
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const int reps = env_int("DASCHED_BENCH_REPS", 5);
  const double scale = env_double("DASCHED_BENCH_SCALE", 0.1);
  const int procs = env_int("DASCHED_BENCH_PROCS", 4);
  const ExperimentGrid grid = bench_grid(scale, procs);
  const auto cells = static_cast<long long>(grid.size());

  char workload[160];
  std::snprintf(workload, sizeof(workload),
                "\"apps\": 2, \"policies\": 2, \"schemes\": 2, "
                "\"cells\": %lld, \"scale\": %g, \"procs\": %d, \"threads\": 1",
                cells, scale, procs);
  bench::ThroughputJsonWriter json("grid", workload, reps, "modes");

  struct Mode {
    const char* name;
    bool reuse;
  };
  const std::vector<Mode> modes = {{"fresh", false}, {"reuse", true}};
  double fresh_median = 0;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    std::vector<double> seconds;
    for (int rep = 0; rep < reps; ++rep) {
      seconds.push_back(run_once(grid, modes[i].reuse));
    }
    const double med = bench::median_seconds(seconds);
    if (!modes[i].reuse) fresh_median = med;
    const double speedup = fresh_median > 0 ? fresh_median / med : 0.0;
    std::fprintf(stderr, "[%s] median %.3fs, %.1f cells/s (%.2fx)\n",
                 modes[i].name, med, static_cast<double>(cells) / med,
                 speedup);
    char fields[160];
    std::snprintf(fields, sizeof(fields),
                  "\"mode\": \"%s\", \"median_seconds\": %.4f, "
                  "\"cells\": %lld, \"cells_per_sec\": %.2f, "
                  "\"speedup_vs_fresh\": %.3f",
                  modes[i].name, med, cells, static_cast<double>(cells) / med,
                  speedup);
    json.row(fields, i + 1 == modes.size());
  }
  json.finish();
  return 0;
}
