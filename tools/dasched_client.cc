// dasched_client — command-line client for the dasched_serve daemon.
//
// Mirrors dasched_run's single/grid interface, but every simulation runs
// on the daemon over the bit-exact serve protocol, so output produced here
// diffs clean against dasched_run on the same configuration:
//
//   dasched_serve --socket tcp:0          # prints e.g. tcp:43617
//   dasched_client --connect tcp:43617 --ping
//   dasched_client --connect tcp:43617 --app sar --policy history
//       --scheme --csv            # == dasched_run ... --csv
//   dasched_client --connect tcp:43617 --replay trace.csv --hexfloat
//   dasched_client --connect tcp:43617 --grid --apps sar,hf
//       --policies default,history --schemes both --out-csv grid.csv
//   dasched_client --connect tcp:43617 --shutdown
//
// Grid jobs stream one result per cell; the client re-derives the same
// deterministic cell list locally (the grid codec round-trips the full
// request), pairs each streamed result with its cell by index, and writes
// byte-identical CSV/JSONL through the same result sinks dasched_run uses.
//
// Exit codes follow dasched_run (tools/cli_main.h): a daemon error reply
// of kind `config` or `trace` is bad input and exits 2 with its
// `field: message`; transport failures and other daemon errors exit 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_main.h"
#include "engine/result_sink.h"
#include "serve/client.h"
#include "util/parse.h"

using namespace dasched;
using namespace dasched::serve;

namespace {

[[noreturn]] void usage(const char* argv0, int code) {
  std::printf(
      "usage: %s --connect ADDR [options]\n"
      "connection:\n"
      "  --connect ADDR  unix:PATH or tcp:PORT of a dasched_serve daemon\n"
      "  --retry N       retry a refused connection N times (200ms apart)\n"
      "actions (combinable; run/grid is the default action):\n"
      "  --ping          round-trip a ping frame\n"
      "  --shutdown      ask the daemon to drain and exit (after any run)\n"
      "trace replay (uploaded to the daemon; see EXPERIMENTS.md):\n"
      "  --replay F      upload trace file F, run the registered replay app\n"
      "  --replay-format X   auto|csv|jsonl|blk (default auto)\n"
      "  --replay-slot-us N  timestamp quantum (default 10000)\n"
      "  --replay-seed N     tie-break/jitter seed (default 1)\n"
      "single-run output:\n"
      "  --csv           one CSV row (the dasched_run --csv format)\n"
      "  --csv-header    print the CSV header and exit (no connection)\n"
      "  --hexfloat      one bit-exact hexfloat line (the hexfloat_probe\n"
      "                  format) — diffs clean against dasched_run --hexfloat\n"
      "grid mode:\n"
      "  --grid          run a grid job on the daemon\n"
      "  --apps A,B,..   --policies P,..   --schemes off|on|both\n"
      "  --sweep AXIS=V1,V2,..   (as dasched_run)\n"
      "  --out-csv F     per-cell CSV ('-' = stdout), byte-identical to\n"
      "                  dasched_run --grid --out-csv on the same grid\n"
      "  --out-jsonl F   per-cell JSON lines\n"
      "config knobs (as dasched_run):\n"
      "  --app --policy --scheme --procs --scale --nodes --delta --theta\n"
      "  --buffer --cache --seed --audit\n"
      "  --trace DIR --trace-level L   (telemetry runs server-side; the\n"
      "                  summary JSON streams back; artifacts land under the\n"
      "                  daemon's working directory)\n"
      "  --help          this text\n",
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

int int_or_die(const char* s, const char* what) {
  const auto v = parse_i64(s);
  if (!v) die_invalid_value(what, s, "an integer");
  return static_cast<int>(*v);
}

double num_or_die(const char* s, const char* what) {
  const auto v = parse_f64(s);
  if (!v) die_invalid_value(what, s, "a number");
  return *v;
}

// dasched_run's single-run CSV schema, byte-for-byte.
constexpr const char* kCsvHeader =
    "app,policy,scheme,procs,scale,nodes,exec_s,energy_j,spin_downs,"
    "spin_ups,rpm_changes,cache_hit_rate,prefetches,buffer_hits,"
    "direct_reads,events";

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

int run_cli(int argc, char** argv) {
  std::string address;
  int retry = 0;
  bool do_ping = false;
  bool do_shutdown = false;
  bool do_run = false;  // any config/replay/grid flag turns this on
  bool csv = false;
  bool hexfloat = false;
  bool audit = false;
  bool grid_mode = false;
  bool procs_set = false;
  std::string replay_path;
  ReplayOptions replay_opts;
  ExperimentConfig cfg;
  cfg.app = "sar";
  std::vector<std::string> grid_apps;
  std::vector<PolicyKind> grid_policies;
  std::vector<bool> grid_schemes{false};
  SweepAxis grid_sweep;
  std::string out_csv;
  std::string out_jsonl;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (arg == "--connect") {
      address = value();
    } else if (arg == "--retry") {
      retry = int_or_die(value(), "--retry");
    } else if (arg == "--ping") {
      do_ping = true;
    } else if (arg == "--shutdown") {
      do_shutdown = true;
    } else if (arg == "--replay") {
      replay_path = value();
      do_run = true;
    } else if (arg == "--replay-format") {
      const char* v = value();
      const auto fmt = parse_trace_format(v);
      if (!fmt) die_invalid_value("--replay-format", v, "auto|csv|jsonl|blk");
      replay_opts.format = *fmt;
    } else if (arg == "--replay-slot-us") {
      replay_opts.slot_us = int_or_die(value(), "--replay-slot-us");
    } else if (arg == "--replay-seed") {
      replay_opts.seed =
          static_cast<std::uint64_t>(int_or_die(value(), "--replay-seed"));
    } else if (arg == "--app") {
      cfg.app = value();
      do_run = true;
    } else if (arg == "--policy") {
      cfg.policy = parse_policy(value());
      do_run = true;
    } else if (arg == "--scheme") {
      cfg.use_scheme = true;
      do_run = true;
    } else if (arg == "--procs") {
      cfg.scale.num_processes = int_or_die(value(), "--procs");
      procs_set = true;
      do_run = true;
    } else if (arg == "--scale") {
      cfg.scale.factor = num_or_die(value(), "--scale");
      do_run = true;
    } else if (arg == "--nodes") {
      cfg.storage.num_io_nodes = int_or_die(value(), "--nodes");
      do_run = true;
    } else if (arg == "--delta") {
      cfg.compile.sched.delta = int_or_die(value(), "--delta");
      do_run = true;
    } else if (arg == "--theta") {
      cfg.compile.sched.theta = int_or_die(value(), "--theta");
      do_run = true;
    } else if (arg == "--buffer") {
      cfg.runtime.buffer_capacity = mib(int_or_die(value(), "--buffer"));
      do_run = true;
    } else if (arg == "--cache") {
      cfg.storage.node.cache_capacity = mib(int_or_die(value(), "--cache"));
      do_run = true;
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(int_or_die(value(), "--seed"));
      do_run = true;
      do_run = true;
    } else if (arg == "--audit") {
      audit = true;
      do_run = true;
    } else if (arg == "--trace") {
      cfg.telemetry.dir = value();
      if (cfg.telemetry.level == TraceLevel::kOff) {
        cfg.telemetry.level = TraceLevel::kState;
      }
      do_run = true;
    } else if (arg == "--trace-level") {
      const char* v = value();
      const auto level = parse_trace_level(v);
      if (!level) die_invalid_value("--trace-level", v, "off|state|request|full");
      cfg.telemetry.level = *level;
      do_run = true;
    } else if (arg == "--csv") {
      csv = true;
      do_run = true;
    } else if (arg == "--csv-header") {
      std::puts(kCsvHeader);
      return 0;
    } else if (arg == "--hexfloat") {
      hexfloat = true;
      do_run = true;
    } else if (arg == "--grid") {
      grid_mode = true;
      do_run = true;
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
        die_invalid_value("--schemes", v.c_str(), "off|on|both");
      }
    } else if (arg == "--sweep") {
      const std::string v = value();
      const std::size_t eq = v.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= v.size()) {
        die_invalid_value("--sweep", v.c_str(), "AXIS=V1,V2,...");
      }
      std::vector<double> values;
      for (const std::string& s : split_list(v.substr(eq + 1))) {
        values.push_back(num_or_die(s.c_str(), "--sweep"));
      }
      try {
        grid_sweep = sweep_axis_by_name(v.substr(0, eq), std::move(values));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "--sweep: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--out-csv") {
      out_csv = value();
    } else if (arg == "--out-jsonl") {
      out_jsonl = value();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0], 2);
    }
  }

  if (address.empty()) {
    std::fprintf(stderr, "--connect ADDR is required\n");
    return 2;
  }
  if (!do_ping && !do_shutdown && !do_run) do_run = true;

  try {
    ServeClient client = ServeClient::connect(address, retry);

    if (do_ping) {
      client.ping();
      std::printf("pong (tenant %llu)\n",
                  static_cast<unsigned long long>(client.tenant_id()));
    }

    if (do_run) {
      if (!replay_path.empty()) {
        std::ifstream in(replay_path, std::ios::binary);
        if (!in) {
          std::fprintf(stderr, "cannot read '%s'\n", replay_path.c_str());
          return 1;
        }
        std::ostringstream content;
        content << in.rdbuf();
        const ServeClient::UploadReply upload =
            client.upload_trace(content.str(), replay_path, replay_opts);
        cfg.app = upload.app;
        if (!procs_set) {
          cfg.scale.num_processes = upload.procs;
        } else if (cfg.scale.num_processes != upload.procs) {
          std::fprintf(stderr,
                       "--procs %d conflicts with the trace's own process "
                       "count %d\n",
                       cfg.scale.num_processes, upload.procs);
          return 2;
        }
        std::fprintf(stderr, "[replay] %s: %lld records, %lld files -> %s\n",
                     replay_path.c_str(), upload.records, upload.files,
                     upload.app.c_str());
      }

      if (grid_mode) {
        ExperimentGrid grid;
        grid.base = cfg;
        grid.base_seed = cfg.seed;
        grid.apps = grid_apps.empty()
                        ? std::vector<std::string>{cfg.app}
                        : grid_apps;
        if (!grid_policies.empty()) grid.policies = grid_policies;
        grid.schemes = grid_schemes;
        grid.sweep = std::move(grid_sweep);

        // The daemon streams results in the same deterministic cell order
        // this local expansion produces (the grid request round-trips).
        const std::vector<GridCell> cells = grid.cells();
        std::vector<GridCellResult> rows;
        rows.reserve(cells.size());
        const std::size_t streamed = client.run_grid(
            grid, audit, [&](const ServeClient::Reply& reply) {
              if (reply.cell.index >= cells.size()) {
                throw ProtocolError("grid cell index out of range");
              }
              rows.push_back(GridCellResult{cells[reply.cell.index],
                                            reply.result});
            });
        std::fprintf(stderr, "[grid] %zu cells via %s\n", streamed,
                     address.c_str());
        GridResultSet results(std::move(rows));
        write_result_files(results, out_csv, out_jsonl);
      } else {
        ServeClient::Reply reply;
        client.run(cfg, audit, reply);
        const ExperimentResult& r = reply.result;
        if (hexfloat) {
          print_hexfloat_line(r);
        } else if (csv) {
          print_csv_row(cfg, r);
        } else {
          std::printf("%s %s%s: exec %.2f min, energy %.2f kJ, events %lld\n",
                      r.app.c_str(), to_string(r.policy),
                      r.scheme ? " +scheme" : "", r.exec_minutes(),
                      r.energy_j.value() / 1'000.0,
                      static_cast<long long>(r.events));
        }
        if (!reply.telemetry_json.empty() && !csv && !hexfloat) {
          std::printf("telemetry: %s\n", reply.telemetry_json.c_str());
        }
      }
    }

    if (do_shutdown) client.shutdown_server();
  } catch (const ServeError& e) {
    const ErrorInfo& info = e.info();
    if (info.kind == "config" || info.kind == "trace") {
      std::fprintf(stderr, "%s: %s\n", info.field.c_str(),
                   info.message.c_str());
      return 2;
    }
    std::fprintf(stderr, "dasched_client: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli_main("dasched_client", [&] { return run_cli(argc, argv); });
}
