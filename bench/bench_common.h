// Shared plumbing for the figure/table reproduction binaries.
//
// Every bench binary *declares* its slice of the paper's experimental grid
// (engine/experiment_grid.h), executes it on the thread-parallel grid
// runner (engine/grid_runner.h), and prints the corresponding rows/series
// as an ASCII table.  Structured results flow through the shared sink
// (engine/result_sink.h).  Environment knobs (strictly parsed — a
// malformed value stops the run):
//   DASCHED_BENCH_SCALE    workload scale factor (default 0.5, the bench
//                          calibration every number in EXPERIMENTS.md was
//                          measured at; 1.0 is the full paper-sized run)
//   DASCHED_BENCH_PROCS    client processes      (default 32, Table II)
//   DASCHED_GRID_THREADS   grid worker threads   (default: hardware
//                          concurrency; the knob every grid run reads)
//   DASCHED_BENCH_CSV      write all cells as CSV to this path ("-" stdout)
//   DASCHED_BENCH_JSONL    write all cells as JSON lines to this path
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "driver/experiment.h"
#include "engine/env_knobs.h"
#include "engine/experiment_grid.h"
#include "engine/grid_runner.h"
#include "engine/result_sink.h"
#include "util/table.h"

namespace dasched::bench {

inline WorkloadScale bench_scale() {
  WorkloadScale s;
  s.factor = env_double("DASCHED_BENCH_SCALE", 0.5);
  s.num_processes = env_int("DASCHED_BENCH_PROCS", 32);
  return s;
}

inline int bench_threads() { return resolve_grid_threads(0); }

/// The six applications in Table III order.
inline const std::vector<std::string>& all_app_names() {
  static const std::vector<std::string> names{"hf",   "sar",       "astro",
                                              "apsi", "madbench2", "wupwise"};
  return names;
}

/// Fast subset used by the parameter sweeps (Figs. 13c/d, 14a/b), where the
/// paper reports aggregate trends rather than per-application bars.
inline const std::vector<std::string>& sweep_app_names() {
  static const std::vector<std::string> names{"sar", "apsi", "madbench2"};
  return names;
}

inline const std::vector<PolicyKind>& all_policies() {
  static const std::vector<PolicyKind> kinds{
      PolicyKind::kSimple, PolicyKind::kPrediction, PolicyKind::kHistory,
      PolicyKind::kStaggered};
  return kinds;
}

/// Grid template at the bench scale; axes default to a single baseline cell.
inline ExperimentGrid base_grid(std::vector<std::string> apps) {
  ExperimentGrid grid;
  grid.base.scale = bench_scale();
  grid.apps = std::move(apps);
  return grid;
}

/// Executes one declared grid on the worker pool, logging per-cell progress.
inline GridResultSet run_bench_grid(const ExperimentGrid& grid) {
  GridRunOptions opts;
  opts.threads = bench_threads();
  const std::size_t total = grid.size();
  opts.on_cell_done = [total](const GridCell& cell) {
    std::fprintf(stderr, "[bench] done %s/%s/%s%s (cell %zu of %zu)\n",
                 cell.app.c_str(), to_string(cell.policy),
                 cell.scheme ? "s" : "b",
                 cell.has_sweep
                     ? (" " + cell.sweep_name + "=" +
                        std::to_string(cell.sweep_value))
                           .c_str()
                     : "",
                 cell.index + 1, total);
  };
  return run_grid(grid, opts);
}

/// The recurring fig12/13 shape: the four policies at `scheme`, plus the
/// Default Scheme (no policy, no scheme) baselines the metrics divide by.
inline GridResultSet run_policy_grid(const std::vector<std::string>& apps,
                                     bool scheme) {
  ExperimentGrid grid = base_grid(apps);
  grid.policies = all_policies();
  grid.schemes = {scheme};
  GridResultSet results = run_bench_grid(grid);
  grid.policies = {PolicyKind::kNone};
  grid.schemes = {false};
  results.append(run_bench_grid(grid));
  return results;
}

/// Prints the Fig. 12-style idle-period CDF table for all applications.
inline void print_idle_cdf(const GridResultSet& results, bool scheme) {
  std::vector<std::string> header{"idleness (msec)"};
  for (const std::string& name : all_app_names()) header.push_back(name);
  TextTable table(std::move(header));

  std::map<std::string, std::vector<double>> cdfs;
  for (const std::string& name : all_app_names()) {
    cdfs[name] =
        results.find(name, PolicyKind::kNone, scheme).storage.idle_periods.cdf();
  }
  const auto edges = DurationHistogram::paper_edges_msec();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    std::vector<std::string> row{TextTable::fmt(edges[i], 0)};
    for (const std::string& name : all_app_names()) {
      row.push_back(TextTable::pct(cdfs[name][i]));
    }
    table.add_row(std::move(row));
  }
  table.print();
}

/// Prints the Fig. 12(c/d) / 13(a/b)-style grid: one row per application,
/// one column per policy, plus a cross-application average row.
/// `metric` maps (policy run, default-scheme baseline) to a fraction.
inline void print_policy_grid(
    const GridResultSet& results, bool scheme,
    const std::function<double(const ExperimentResult&,
                               const ExperimentResult&)>& metric) {
  TextTable table(
      {"application", "simple", "prediction", "history", "staggered"});
  std::map<PolicyKind, double> sums;
  for (const std::string& name : all_app_names()) {
    const ExperimentResult& base =
        results.find(name, PolicyKind::kNone, false);
    std::vector<std::string> row{name};
    for (PolicyKind kind : all_policies()) {
      const double v = metric(results.find(name, kind, scheme), base);
      sums[kind] += v;
      row.push_back(TextTable::pct(v));
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> avg{"average"};
  for (PolicyKind kind : all_policies()) {
    avg.push_back(
        TextTable::pct(sums[kind] / static_cast<double>(all_app_names().size())));
  }
  table.add_row(std::move(avg));
  table.print();
}

/// Median of a sample vector (odd: middle; even: mean of the two middles).
/// The A/B throughput harnesses report medians, not means — a single noisy
/// repetition on a busy CI host must not move the headline number.
inline double median_seconds(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Shared envelope of the BENCH_*.json throughput reports
/// (event_queue_throughput, grid_throughput): every file
/// carries the same identification fields — name, workload-knob object,
/// host_cores, nproc, reps — followed by one row object per measured
/// setting, so tooling can diff any of them with the same reader.
class ThroughputJsonWriter {
 public:
  /// `workload_fields` is the inner key/value list of the "workload" object
  /// (already JSON-formatted, without braces); `reps` is appended to it.
  ThroughputJsonWriter(const char* name, const std::string& workload_fields,
                       int reps, const char* rows_key) {
    std::printf("{\n");
    std::printf("  \"name\": \"%s\",\n", name);
    const std::string inner =
        workload_fields.empty() ? std::string() : workload_fields + ", ";
    std::printf("  \"workload\": {%s\"reps\": %d},\n", inner.c_str(), reps);
    std::printf("  \"host_cores\": %u,\n", std::thread::hardware_concurrency());
    std::printf("  \"nproc\": %ld,\n", sysconf(_SC_NPROCESSORS_ONLN));
    std::printf("  \"%s\": [\n", rows_key);
  }

  /// One row object; `fields` is its inner key/value list (no braces).
  void row(const std::string& fields, bool last) {
    std::printf("    {%s}%s\n", fields.c_str(), last ? "" : ",");
  }

  void finish() { std::printf("  ]\n}\n"); }
};

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("== %s ==\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  const WorkloadScale s = bench_scale();
  std::printf("scale: factor=%.2f processes=%d threads=%d\n\n", s.factor,
              s.num_processes, bench_threads());
}

}  // namespace dasched::bench
