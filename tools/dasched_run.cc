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
#include <cstring>
#include <string>
#include <vector>

#include <fstream>

#include "check/audit.h"
#include "cli_main.h"
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

[[noreturn]] void usage(const char* argv0, int code) {
  std::printf(
      "usage: %s [options]\n"
      "single-experiment mode:\n"
      "  --app NAME        hf|sar|astro|apsi|madbench2|wupwise (default sar)\n"
      "  --policy NAME     default|simple|prediction|history|staggered\n"
      "  --scheme          enable the compiler-directed scheduling framework\n"
      "  --csv             print one CSV row instead of the report\n"
      "  --csv-header      print the CSV header and exit\n"
      "  --hexfloat        print one bit-exact hexfloat line (the\n"
      "                    hexfloat_probe format) instead of the report\n"
      "  --dump-trace F    write the workload's lowered trace to F and exit\n"
      "trace replay (EXPERIMENTS.md \"Trace replay\"):\n"
      "  --replay F        replay an external I/O trace as the workload;\n"
      "                    registers it as app replay:<fingerprint> with the\n"
      "                    trace's own process count (override with --procs)\n"
      "  --replay-format X auto|csv|jsonl|blk (default auto: extension, then\n"
      "                    first-data-line sniff)\n"
      "  --replay-slot-us N  timestamp quantum per scheduling slot\n"
      "                    (default 10000)\n"
      "  --replay-seed N   tie-break/jitter seed; part of the trace's\n"
      "                    fingerprint identity (default 1)\n"
      "grid mode:\n"
      "  --grid            run a declarative experiment grid (see below)\n"
      "  --apps A,B,..     application axis (default: all six)\n"
      "  --policies P,..   policy axis (default: default,simple,prediction,\n"
      "                    history,staggered)\n"
      "  --schemes S       scheme axis: off|on|both (default off)\n"
      "  --sweep AXIS=V,.. numeric axis: nodes|delta|theta|cache_mib|\n"
      "                    buffer_mib|slack (e.g. --sweep nodes=2,4,8)\n"
      "  --threads N       grid worker threads (default: DASCHED_GRID_THREADS,\n"
      "                    then hardware concurrency)\n"
      "  --out-csv F       write per-cell CSV to F ('-' = stdout)\n"
      "  --out-jsonl F     write per-cell JSON lines to F ('-' = stdout)\n"
      "telemetry:\n"
      "  --trace DIR       record a trace; writes trace.bin / summary.json /\n"
      "                    trace.json under DIR (grid mode: DIR/cell_N);\n"
      "                    implies --trace-level state unless given\n"
      "  --trace-level L   off|state|request|full (off disables capture)\n"
      "  --out-telemetry-csv F    grid mode: per-cell telemetry CSV\n"
      "                    (default DIR/telemetry.csv when --trace is set)\n"
      "  --out-telemetry-jsonl F  grid mode: per-cell telemetry JSONL\n"
      "                    (default DIR/telemetry.jsonl when --trace is set)\n"
      "                    env fallback: DASCHED_TRACE, DASCHED_TRACE_LEVEL\n"
      "shared knobs:\n"
      "  --procs N         client processes (default 32)\n"
      "  --scale F         workload scale factor (default 1.0)\n"
      "  --nodes N         I/O nodes (default 8)\n"
      "  --delta N         vertical reuse range (default 20)\n"
      "  --theta N         per-node access cap, 0 = off (default 4)\n"
      "  --buffer MB       client prefetch buffer capacity (default 128)\n"
      "  --cache MB        per-node storage cache (default 64)\n"
      "  --seed N          RNG seed; grid cells derive per-cell seeds\n"
      "  --audit           run the invariant auditor; exits 1 on violations\n"
      "  --help            this text\n",
      argv0);
  std::exit(code);
}

PolicyKind parse_policy(const std::string& name) {
  if (name == "default" || name == "none") return PolicyKind::kNone;
  if (name == "simple") return PolicyKind::kSimple;
  if (name == "prediction") return PolicyKind::kPrediction;
  if (name == "history") return PolicyKind::kHistory;
  if (name == "staggered") return PolicyKind::kStaggered;
  std::fprintf(stderr, "unknown policy '%s'\n", name.c_str());
  std::exit(2);
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

double parse_number_or_die(const std::string& s, const char* what) {
  const auto v = parse_double(s);
  if (!v) {
    std::fprintf(stderr, "%s: invalid number '%s'\n", what, s.c_str());
    std::exit(2);
  }
  return *v;
}

int parse_int_or_die(const std::string& s, const char* what) {
  const auto v = parse_int(s);
  if (!v) {
    std::fprintf(stderr, "%s: invalid integer '%s'\n", what, s.c_str());
    std::exit(2);
  }
  return static_cast<int>(*v);
}

constexpr const char* kCsvHeader =
    "app,policy,scheme,procs,scale,nodes,exec_s,energy_j,spin_downs,"
    "spin_ups,rpm_changes,cache_hit_rate,prefetches,buffer_hits,"
    "direct_reads,events";

int run_grid_mode(ExperimentGrid grid, const GridRunOptions& opts,
                  const std::string& out_csv, const std::string& out_jsonl,
                  const std::string& out_telemetry_csv,
                  const std::string& out_telemetry_jsonl) {
  const std::size_t total = grid.size();
  std::fprintf(stderr, "[grid] %zu cells on %d threads\n", total,
               resolve_grid_threads(opts.threads));
  const GridResultSet results = run_grid(grid, opts);

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
  write_result_files(results, out_csv, out_jsonl);
  write_telemetry_files(results, out_telemetry_csv, out_telemetry_jsonl);
  return 0;
}

int run_cli(int argc, char** argv) {
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.telemetry = telemetry_from_env();  // CLI flags below override
  bool csv = false;
  bool hexfloat = false;
  bool audit = false;
  bool grid_mode = false;
  bool procs_set = false;
  std::string replay_path;
  ReplayOptions replay_opts;
  std::vector<std::string> grid_apps;
  std::vector<PolicyKind> grid_policies;
  std::vector<bool> grid_schemes{false};
  SweepAxis grid_sweep;
  int grid_threads = 0;
  std::string out_csv;
  std::string out_jsonl;
  std::string out_telemetry_csv;
  std::string out_telemetry_jsonl;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (arg == "--app") {
      cfg.app = value();
    } else if (arg == "--policy") {
      cfg.policy = parse_policy(value());
    } else if (arg == "--scheme") {
      cfg.use_scheme = true;
    } else if (arg == "--procs") {
      cfg.scale.num_processes = parse_int_or_die(value(), "--procs");
      procs_set = true;
    } else if (arg == "--scale") {
      cfg.scale.factor = parse_number_or_die(value(), "--scale");
    } else if (arg == "--nodes") {
      cfg.storage.num_io_nodes = parse_int_or_die(value(), "--nodes");
    } else if (arg == "--delta") {
      cfg.compile.sched.delta = parse_int_or_die(value(), "--delta");
    } else if (arg == "--theta") {
      cfg.compile.sched.theta = parse_int_or_die(value(), "--theta");
    } else if (arg == "--buffer") {
      cfg.runtime.buffer_capacity = mib(parse_int_or_die(value(), "--buffer"));
    } else if (arg == "--cache") {
      cfg.storage.node.cache_capacity =
          mib(parse_int_or_die(value(), "--cache"));
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(
          parse_int_or_die(value(), "--seed"));
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--hexfloat") {
      hexfloat = true;
    } else if (arg == "--replay") {
      replay_path = value();
    } else if (arg == "--replay-format") {
      const std::string v = value();
      const auto fmt = parse_trace_format(v);
      if (!fmt) {
        std::fprintf(stderr,
                     "--replay-format: expected auto|csv|jsonl|blk, got "
                     "'%s'\n",
                     v.c_str());
        return 2;
      }
      replay_opts.format = *fmt;
    } else if (arg == "--replay-slot-us") {
      replay_opts.slot_us = parse_int_or_die(value(), "--replay-slot-us");
    } else if (arg == "--replay-seed") {
      replay_opts.seed = static_cast<std::uint64_t>(
          parse_int_or_die(value(), "--replay-seed"));
    } else if (arg == "--grid") {
      grid_mode = true;
    } else if (arg == "--apps") {
      grid_apps = split_list(value());
    } else if (arg == "--policies") {
      grid_policies.clear();
      for (const std::string& p : split_list(value())) {
        grid_policies.push_back(parse_policy(p));
      }
    } else if (arg == "--schemes") {
      const std::string v = value();
      if (v == "off") {
        grid_schemes = {false};
      } else if (v == "on") {
        grid_schemes = {true};
      } else if (v == "both") {
        grid_schemes = {false, true};
      } else {
        std::fprintf(stderr, "--schemes: expected off|on|both, got '%s'\n",
                     v.c_str());
        return 2;
      }
    } else if (arg == "--sweep") {
      const std::string v = value();
      const std::size_t eq = v.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= v.size()) {
        std::fprintf(stderr, "--sweep: expected AXIS=V1,V2,...; got '%s'\n",
                     v.c_str());
        return 2;
      }
      std::vector<double> values;
      for (const std::string& s : split_list(v.substr(eq + 1))) {
        values.push_back(parse_number_or_die(s, "--sweep"));
      }
      try {
        grid_sweep = sweep_axis_by_name(v.substr(0, eq), std::move(values));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "--sweep: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--threads") {
      grid_threads = parse_int_or_die(value(), "--threads");
    } else if (arg == "--out-csv") {
      out_csv = value();
    } else if (arg == "--out-jsonl") {
      out_jsonl = value();
    } else if (arg == "--trace") {
      cfg.telemetry.dir = value();
      if (cfg.telemetry.level == TraceLevel::kOff) {
        cfg.telemetry.level = TraceLevel::kState;
      }
    } else if (arg == "--trace-level") {
      const std::string v = value();
      const auto level = parse_trace_level(v);
      if (!level) {
        std::fprintf(stderr,
                     "--trace-level: expected off|state|request|full, got "
                     "'%s'\n",
                     v.c_str());
        return 2;
      }
      cfg.telemetry.level = *level;
    } else if (arg == "--out-telemetry-csv") {
      out_telemetry_csv = value();
    } else if (arg == "--out-telemetry-jsonl") {
      out_telemetry_jsonl = value();
    } else if (arg == "--dump-trace") {
      const std::string path = value();
      StripingMap striping(cfg.storage.num_io_nodes, cfg.storage.stripe_size);
      const CompiledProgram trace =
          app_by_name(cfg.app).build(striping, cfg.scale);
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        return 1;
      }
      save_trace(trace, out);
      std::printf("wrote %lld slots x %d processes to %s\n",
                  static_cast<long long>(trace.num_slots),
                  trace.num_processes(), path.c_str());
      return 0;
    } else if (arg == "--csv-header") {
      std::puts(kCsvHeader);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0], 2);
    }
  }

  if (!replay_path.empty()) {
    const App& app = register_replay_file(replay_path, replay_opts);
    cfg.app = app.name;
    if (!procs_set) {
      cfg.scale.num_processes = app.fixed_processes;
    } else if (cfg.scale.num_processes != app.fixed_processes) {
      throw ConfigError("procs",
                        "--procs " + std::to_string(cfg.scale.num_processes) +
                            " conflicts with the trace's own process count " +
                            std::to_string(app.fixed_processes) +
                            " (omit --procs to use the trace's)");
    }
  }

  if (grid_mode) {
    ExperimentGrid grid;
    grid.base = cfg;
    grid.base_seed = cfg.seed;
    grid.apps = grid_apps.empty()
                    ? (replay_path.empty()
                           ? std::vector<std::string>{"hf", "sar", "astro",
                                                      "apsi", "madbench2",
                                                      "wupwise"}
                           : std::vector<std::string>{cfg.app})
                    : grid_apps;
    grid.policies = grid_policies.empty()
                        ? std::vector<PolicyKind>{PolicyKind::kNone,
                                                  PolicyKind::kSimple,
                                                  PolicyKind::kPrediction,
                                                  PolicyKind::kHistory,
                                                  PolicyKind::kStaggered}
                        : grid_policies;
    grid.schemes = grid_schemes;
    grid.sweep = std::move(grid_sweep);
    GridRunOptions opts;
    opts.threads = grid_threads;
    opts.audit = audit;
    opts.telemetry = cfg.telemetry;
    cfg.telemetry = {};  // cells get it via opts with per-cell directories
    grid.base = cfg;
    if (opts.telemetry.enabled() && !opts.telemetry.dir.empty()) {
      if (out_telemetry_csv.empty()) {
        out_telemetry_csv = opts.telemetry.dir + "/telemetry.csv";
      }
      if (out_telemetry_jsonl.empty()) {
        out_telemetry_jsonl = opts.telemetry.dir + "/telemetry.jsonl";
      }
    }
    return run_grid_mode(std::move(grid), opts, out_csv, out_jsonl,
                         out_telemetry_csv, out_telemetry_jsonl);
  }

  SimAuditor auditor;
  const ExperimentResult r =
      audit ? run_experiment(cfg, &auditor) : run_experiment(cfg);
  if (audit) {
    std::fputs(auditor.report().c_str(), (csv || hexfloat) ? stderr : stdout);
  }

  if (hexfloat) {
    // The hexfloat_probe line format: bit-exact, diffable across processes
    // and across the daemon (dasched_client --hexfloat).
    std::printf(
        "%s %s scheme=%d exec=%lld energy=%a events=%lld "
        "hit_rate=%a disk_reqs=%lld spin_downs=%lld rpm_changes=%lld "
        "sched=%lld forced=%lld fallbacks=%lld mean_advance=%a "
        "buffer_hits=%lld prefetches=%lld\n",
        r.app.c_str(), to_string(r.policy), r.scheme ? 1 : 0,
        static_cast<long long>(r.exec_time.count()), r.energy_j.value(),
        static_cast<long long>(r.events), r.storage.cache_hit_rate,
        static_cast<long long>(r.storage.disk_requests),
        static_cast<long long>(r.storage.spin_downs),
        static_cast<long long>(r.storage.rpm_changes),
        static_cast<long long>(r.sched.scheduled),
        static_cast<long long>(r.sched.forced),
        static_cast<long long>(r.sched.theta_fallbacks),
        r.sched.mean_advance_slots,
        static_cast<long long>(r.runtime.buffer_hits),
        static_cast<long long>(r.runtime.prefetches));
    return audit && !auditor.clean() ? 1 : 0;
  }

  if (csv) {
    std::printf("%s,%s,%d,%d,%.3f,%d,%.3f,%.1f,%lld,%lld,%lld,%.4f,%lld,%lld,%lld,%lld\n",
                r.app.c_str(), to_string(r.policy), r.scheme ? 1 : 0,
                cfg.scale.num_processes, cfg.scale.factor,
                cfg.storage.num_io_nodes, to_sec(r.exec_time), r.energy_j.value(),
                static_cast<long long>(r.storage.spin_downs),
                static_cast<long long>(r.storage.spin_ups),
                static_cast<long long>(r.storage.rpm_changes),
                r.storage.cache_hit_rate,
                static_cast<long long>(r.runtime.prefetches),
                static_cast<long long>(r.runtime.buffer_hits),
                static_cast<long long>(r.runtime.direct_reads),
                static_cast<long long>(r.events));
    return audit && !auditor.clean() ? 1 : 0;
  }

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
  return audit && !auditor.clean() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli_main("dasched_run", [&] { return run_cli(argc, argv); });
}
