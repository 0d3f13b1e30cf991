#include "cli_options.h"

#include <cstdio>
#include <cstdlib>
#include <limits>

#include "engine/config_keys.h"
#include "util/parse.h"

namespace dasched {

namespace {

std::vector<std::string_view> split_list(std::string_view csv) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string_view::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

bool CliArgs::next() { return ++i_ < argc_; }

const char* CliArgs::value() {
  if (i_ + 1 >= argc_) usage(2);
  return argv_[++i_];
}

int CliArgs::int_value() {
  const std::string_view name = argv_[i_];
  const char* v = value();
  const auto n = parse_i64(v);
  if (!n || *n < std::numeric_limits<int>::min() ||
      *n > std::numeric_limits<int>::max()) {
    bad_value(name.substr(2), "a 32-bit integer", v);
  }
  return static_cast<int>(*n);
}

void CliArgs::usage(int code) const {
  usage_(argv_[0], code);
  std::exit(code);
}

void CliArgs::unknown() const {
  std::fprintf(stderr, "unknown option '%s'\n", argv_[i_]);
  usage(2);
}

void CliOptions::use_replay_app(const std::string& app, int procs) {
  cfg.app = app;
  if (!procs_set) {
    cfg.scale.num_processes = procs;
  } else if (cfg.scale.num_processes != procs) {
    throw ConfigError("procs",
                      "--procs " + std::to_string(cfg.scale.num_processes) +
                          " conflicts with the trace's own process count " +
                          std::to_string(procs) +
                          " (omit --procs to use the trace's)");
  }
}

ExperimentGrid CliOptions::make_grid() const {
  ExperimentGrid grid;
  grid.base = cfg;
  grid.base_seed = cfg.seed;
  if (!apps.empty()) {
    grid.apps = apps;
  } else if (!replay_path.empty()) {
    grid.apps = {cfg.app};
  } else {
    grid.apps.clear();
    for (const App& app : all_apps()) grid.apps.push_back(app.name);
  }
  grid.policies = !policies.empty()
                      ? policies
                      : std::vector<PolicyKind>{
                            PolicyKind::kNone, PolicyKind::kSimple,
                            PolicyKind::kPrediction, PolicyKind::kHistory,
                            PolicyKind::kStaggered};
  grid.schemes = schemes;
  grid.sweep = sweep;
  return grid;
}

bool parse_shared_flag(CliArgs& args, CliOptions& opts) {
  const std::string_view flag = args.flag();
  if (const ConfigKey* row = find_flag(config_keys(), flag)) {
    row->set(opts.cfg, row->is_switch ? "1" : args.value());
    if (row->key == "procs") opts.procs_set = true;
    opts.run_requested = true;
  } else if (const ReplayKey* row = find_flag(replay_keys(), flag)) {
    row->set(opts.replay, args.value());
  } else if (flag == "--replay") {
    opts.replay_path = args.value();
    opts.run_requested = true;
  } else if (flag == "--csv") {
    opts.csv = true;
    opts.run_requested = true;
  } else if (flag == "--csv-header") {
    opts.csv_header = true;
  } else if (flag == "--hexfloat") {
    opts.hexfloat = true;
    opts.run_requested = true;
  } else if (flag == "--grid") {
    opts.grid = true;
    opts.run_requested = true;
  } else if (flag == "--apps") {
    opts.apps.clear();
    for (const std::string_view app : split_list(args.value())) {
      opts.apps.emplace_back(app);
    }
  } else if (flag == "--policies") {
    opts.policies.clear();
    for (const std::string_view name : split_list(args.value())) {
      const auto policy = parse_policy(name);
      if (!policy) {
        bad_value(flag.substr(2),
                  "default|simple|prediction|history|staggered", name);
      }
      opts.policies.push_back(*policy);
    }
  } else if (flag == "--schemes") {
    const std::string_view v = args.value();
    if (v == "off") {
      opts.schemes = {false};
    } else if (v == "on") {
      opts.schemes = {true};
    } else if (v == "both") {
      opts.schemes = {false, true};
    } else {
      bad_value(flag.substr(2), "off|on|both", v);
    }
  } else if (flag == "--sweep") {
    const std::string_view v = args.value();
    const std::size_t eq = v.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 >= v.size()) {
      bad_value(flag.substr(2), "AXIS=V1,V2,...", v);
    }
    std::vector<double> values;
    for (const std::string_view item : split_list(v.substr(eq + 1))) {
      const auto x = parse_f64(item);
      if (!x) bad_value(flag.substr(2), "a number", item);
      values.push_back(*x);
    }
    opts.sweep = sweep_axis_by_name(std::string(v.substr(0, eq)),
                                    std::move(values));
  } else if (flag == "--out-csv") {
    opts.out_csv = args.value();
  } else if (flag == "--out-jsonl") {
    opts.out_jsonl = args.value();
  } else if (flag == "--help" || flag == "-h") {
    args.usage(0);
  } else {
    return false;
  }
  return true;
}

void print_shared_usage() {
  std::printf(
      "experiment (every flag also a daemon request key, DESIGN.md §19):\n"
      "  --app NAME        hf|sar|astro|apsi|madbench2|wupwise (default sar)\n"
      "  --policy NAME     default|simple|prediction|history|staggered\n"
      "  --scheme          enable the compiler-directed scheduling framework\n"
      "  --procs N         client processes (default 32)\n"
      "  --scale F         workload scale factor (default 1.0)\n"
      "  --nodes N         I/O nodes (default 8)\n"
      "  --delta N         vertical reuse range (default 20)\n"
      "  --theta N         per-node access cap, 0 = off (default 4)\n"
      "  --buffer MB       client prefetch buffer capacity (default 128)\n"
      "  --cache MB        per-node storage cache (default 64)\n"
      "  --seed N          RNG seed; grid cells derive per-cell seeds\n"
      "  --audit           run the invariant auditor; exits 1 on violations\n"
      "  --trace DIR       record a trace; writes trace.bin / summary.json /\n"
      "                    trace.json under DIR (grid mode: DIR/cell_N);\n"
      "                    implies --trace-level state unless given\n"
      "  --trace-level L   off|state|request|full (off disables capture)\n"
      "single-run output:\n"
      "  --csv             print one CSV row instead of the report\n"
      "  --csv-header      print the CSV header and exit\n"
      "  --hexfloat        print one bit-exact hexfloat line (the\n"
      "                    hexfloat_probe format) instead of the report\n"
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
      "  --grid            run a declarative experiment grid\n"
      "  --apps A,B,..     application axis (default: all six, or the\n"
      "                    replay app with --replay)\n"
      "  --policies P,..   policy axis (default: default,simple,prediction,\n"
      "                    history,staggered)\n"
      "  --schemes S       scheme axis: off|on|both (default off)\n"
      "  --sweep AXIS=V,.. integer axis: nodes|delta|theta|buffer_mib|\n"
      "                    cache_mib|slack (e.g. --sweep nodes=2,4,8)\n"
      "  --out-csv F       write per-cell CSV to F ('-' = stdout)\n"
      "  --out-jsonl F     write per-cell JSON lines to F ('-' = stdout)\n"
      "  --help            this text\n");
}

void print_csv_row(const ExperimentConfig& cfg, const ExperimentResult& r) {
  std::printf(
      "%s,%s,%d,%d,%.3f,%d,%.3f,%.1f,%lld,%lld,%lld,%.4f,%lld,%lld,%lld,"
      "%lld\n",
      r.app.c_str(), to_string(r.policy), r.scheme ? 1 : 0,
      cfg.scale.num_processes, cfg.scale.factor, cfg.storage.num_io_nodes,
      to_sec(r.exec_time), r.energy_j.value(),
      static_cast<long long>(r.storage.spin_downs),
      static_cast<long long>(r.storage.spin_ups),
      static_cast<long long>(r.storage.rpm_changes), r.storage.cache_hit_rate,
      static_cast<long long>(r.runtime.prefetches),
      static_cast<long long>(r.runtime.buffer_hits),
      static_cast<long long>(r.runtime.direct_reads),
      static_cast<long long>(r.events));
}

void print_hexfloat_line(const ExperimentResult& r) {
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
}

}  // namespace dasched
