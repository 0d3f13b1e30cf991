// dasched_run — command-line driver for single experiments and grids.
//
// Single mode runs one (application, policy, scheme) configuration on the
// simulated Table II cluster and prints a human-readable report, or a single
// CSV row for scripting (`--csv` prints the header with `--csv-header`).
//
//   dasched_run --app sar --policy history --scheme
//   dasched_run --app hf --policy simple --nodes 16 --scale 0.25
//   dasched_run --csv-header; for p in simple history; do
//     dasched_run --app sar --policy $p --csv; done
//
// Grid mode (`--grid`) declares the paper's cross product once and executes
// it on the thread-parallel grid runner, emitting structured results:
//
//   dasched_run --grid --apps sar,apsi --policies default,history
//     --schemes both --threads 8 --out-csv grid.csv --out-jsonl grid.jsonl
//   dasched_run --grid --apps sar --policies history --schemes both
//     --sweep nodes=2,4,8,16,32 --audit
//
// Exit codes (tools/cli_main.h): 0 success, 1 runtime failure or audit
// violation, 2 bad input (usage, invalid configuration, unknown app,
// malformed trace).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "cli_main.h"
#include "cli_options.h"
#include "compiler/trace_io.h"
#include "driver/experiment.h"
#include "engine/env_knobs.h"
#include "engine/experiment_grid.h"
#include "engine/grid_runner.h"
#include "engine/result_sink.h"
#include "telemetry/analytics.h"
#include "util/table.h"
#include "workload/trace_replay.h"

using namespace dasched;

namespace {

void usage(const char* argv0, int code) {
  std::printf("usage: %s [options]\n", argv0);
  print_shared_usage();
  std::printf(
      "dasched_run only:\n"
      "  --dump-trace F    write the workload's lowered trace to F and exit\n"
      "  --threads N       grid worker threads (default: DASCHED_GRID_THREADS,\n"
      "                    then hardware concurrency)\n"
      "  --out-telemetry-csv F    grid mode: per-cell telemetry CSV\n"
      "                    (default DIR/telemetry.csv when --trace is set)\n"
      "  --out-telemetry-jsonl F  grid mode: per-cell telemetry JSONL\n"
      "                    (default DIR/telemetry.jsonl when --trace is set)\n"
      "                    env fallback: DASCHED_TRACE, DASCHED_TRACE_LEVEL\n");
  std::exit(code);
}

void print_report(const ExperimentConfig& cfg, const ExperimentResult& r) {
  std::printf("== %s  (%s%s) ==\n", r.app.c_str(), to_string(r.policy),
              r.scheme ? " + scheduling" : "");
  TextTable table({"metric", "value"});
  table.add_row({"simulated execution", TextTable::fmt(r.exec_minutes(), 2) + " min"});
  table.add_row({"disk energy", TextTable::fmt(r.energy_j.value() / 1'000.0, 2) + " kJ"});
  table.add_row({"idle periods", std::to_string(r.storage.idle_periods.count())});
  table.add_row({"spin-downs / spin-ups",
                 std::to_string(r.storage.spin_downs) + " / " +
                     std::to_string(r.storage.spin_ups)});
  table.add_row({"RPM transitions", std::to_string(r.storage.rpm_changes)});
  table.add_row({"storage cache hit rate", TextTable::pct(r.storage.cache_hit_rate)});
  if (r.scheme) {
    table.add_row({"scheduled accesses", std::to_string(r.sched.scheduled)});
    table.add_row({"mean hoist distance",
                   TextTable::fmt(r.sched.mean_advance_slots, 1) + " slots"});
    table.add_row({"prefetches", std::to_string(r.runtime.prefetches)});
    table.add_row({"buffer hits", std::to_string(r.runtime.buffer_hits)});
  }
  if (r.audited) {
    table.add_row({"audit violations", std::to_string(r.audit_violations)});
  }
  table.add_row({"simulator events", std::to_string(r.events)});
  if (r.telemetry != nullptr) {
    const TelemetrySummary& t = *r.telemetry;
    table.add_row({"trace events (" + std::string(to_string(t.meta.level)) +
                       ")",
                   std::to_string(t.trace_events)});
    table.add_row({"idle p50 / p95",
                   TextTable::fmt(t.idle.percentile_us(0.50) / 1e6, 2) +
                       " s / " +
                       TextTable::fmt(t.idle.percentile_us(0.95) / 1e6, 2) +
                       " s"});
    if (t.prediction.observations > 0) {
      table.add_row({"prediction mean |err|",
                     TextTable::fmt(t.prediction.mean_abs_error_us() / 1e6, 2) +
                         " s"});
    }
  }
  table.print();
  if (r.telemetry != nullptr && !cfg.telemetry.dir.empty()) {
    std::printf("telemetry artifacts written to %s\n",
                cfg.telemetry.dir.c_str());
  }
}

int run_grid_mode(const CliOptions& opts, int threads,
                  std::string telemetry_csv, std::string telemetry_jsonl) {
  ExperimentGrid grid = opts.make_grid();
  GridRunOptions run_opts;
  run_opts.threads = threads;
  // Cells get telemetry through the run options, with per-cell directories.
  run_opts.telemetry = grid.base.telemetry;
  grid.base.telemetry = {};
  const std::string& dir = run_opts.telemetry.dir;
  if (run_opts.telemetry.enabled() && !dir.empty()) {
    if (telemetry_csv.empty()) telemetry_csv = dir + "/telemetry.csv";
    if (telemetry_jsonl.empty()) telemetry_jsonl = dir + "/telemetry.jsonl";
  }
  std::fprintf(stderr, "[grid] %zu cells on %d threads\n", grid.size(),
               resolve_grid_threads(threads));
  const GridResultSet results = run_grid(grid, run_opts);

  TextTable table({"app", "policy", "scheme", "sweep", "exec (min)",
                   "energy (kJ)", "events"});
  for (const GridCellResult& row : results.rows()) {
    table.add_row(
        {row.cell.app, to_string(row.cell.policy),
         row.cell.scheme ? "on" : "off",
         row.cell.has_sweep
             ? row.cell.sweep_name + "=" +
                   TextTable::fmt(row.cell.sweep_value, 0)
             : "-",
         TextTable::fmt(row.result.exec_minutes(), 2),
         TextTable::fmt(row.result.energy_j.value() / 1'000.0, 2),
         std::to_string(row.result.events)});
  }
  table.print();
  write_result_files(results, opts.out_csv, opts.out_jsonl);
  write_telemetry_files(results, telemetry_csv, telemetry_jsonl);
  return 0;
}

int run_cli(int argc, char** argv) {
  CliOptions opts;
  opts.cfg.telemetry = telemetry_from_env();  // CLI flags below override
  int grid_threads = 0;
  std::string dump_trace;
  std::string out_telemetry_csv;
  std::string out_telemetry_jsonl;

  CliArgs args(argc, argv, usage);
  while (args.next()) {
    if (parse_shared_flag(args, opts)) continue;
    const std::string_view flag = args.flag();
    if (flag == "--threads") {
      grid_threads = args.int_value();
    } else if (flag == "--out-telemetry-csv") {
      out_telemetry_csv = args.value();
    } else if (flag == "--out-telemetry-jsonl") {
      out_telemetry_jsonl = args.value();
    } else if (flag == "--dump-trace") {
      dump_trace = args.value();
    } else {
      args.unknown();
    }
  }
  if (opts.csv_header) {
    std::puts(kCsvHeader);
    return 0;
  }

  ExperimentConfig& cfg = opts.cfg;
  if (!opts.replay_path.empty()) {
    const App& app = register_replay_file(opts.replay_path, opts.replay);
    opts.use_replay_app(app.name, app.fixed_processes);
  }

  if (!dump_trace.empty()) {
    StripingMap striping(cfg.storage.num_io_nodes, cfg.storage.stripe_size);
    const CompiledProgram trace =
        app_by_name(cfg.app).build(striping, cfg.scale);
    std::ofstream out(dump_trace);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s'\n", dump_trace.c_str());
      return 1;
    }
    save_trace(trace, out);
    std::printf("wrote %lld slots x %d processes to %s\n",
                static_cast<long long>(trace.num_slots),
                trace.num_processes(), dump_trace.c_str());
    return 0;
  }

  if (opts.grid) {
    return run_grid_mode(opts, grid_threads, out_telemetry_csv,
                         out_telemetry_jsonl);
  }

  // An audit violation throws its report to cli_main (stderr, exit 1).
  const ExperimentResult r = run_experiment(cfg);
  std::fputs(r.audit_report.c_str(),
             (opts.csv || opts.hexfloat) ? stderr : stdout);
  if (opts.hexfloat) {
    print_hexfloat_line(r);
  } else if (opts.csv) {
    print_csv_row(cfg, r);
  } else {
    print_report(cfg, r);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli_main("dasched_run", [&] { return run_cli(argc, argv); });
}
