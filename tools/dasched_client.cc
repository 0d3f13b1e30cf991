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
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_main.h"
#include "cli_options.h"
#include "engine/result_sink.h"
#include "serve/client.h"

using namespace dasched;
using namespace dasched::serve;

namespace {

void usage(const char* argv0, int code) {
  std::printf(
      "usage: %s --connect ADDR [options]\n"
      "the experiment, output and grid flags of dasched_run, run on the\n"
      "daemon (telemetry runs server-side: the summary JSON streams back and\n"
      "artifacts land under the daemon's working directory):\n",
      argv0);
  print_shared_usage();
  std::printf(
      "dasched_client only:\n"
      "  --connect ADDR    unix:PATH or tcp:PORT of a dasched_serve daemon\n"
      "  --retry N         retry a refused connection N times (200ms apart)\n"
      "  --ping            round-trip a ping frame\n"
      "  --shutdown        ask the daemon to drain and exit (after any run)\n"
      "  (--ping and --shutdown combine with a run; a run is the default)\n");
  std::exit(code);
}

int run_cli(int argc, char** argv) {
  CliOptions opts;
  std::string address;
  int retry = 0;
  bool do_ping = false;
  bool do_shutdown = false;

  CliArgs args(argc, argv, usage);
  while (args.next()) {
    if (parse_shared_flag(args, opts)) continue;
    const std::string_view flag = args.flag();
    if (flag == "--connect") {
      address = args.value();
    } else if (flag == "--retry") {
      retry = args.int_value();
    } else if (flag == "--ping") {
      do_ping = true;
    } else if (flag == "--shutdown") {
      do_shutdown = true;
    } else {
      args.unknown();
    }
  }
  if (opts.csv_header) {
    std::puts(kCsvHeader);
    return 0;
  }
  if (address.empty()) {
    std::fprintf(stderr, "--connect ADDR is required\n");
    return 2;
  }
  const bool do_run = opts.run_requested || (!do_ping && !do_shutdown);
  ExperimentConfig& cfg = opts.cfg;

  try {
    ServeClient client = ServeClient::connect(address, retry);

    if (do_ping) {
      client.ping();
      std::printf("pong (tenant %llu)\n",
                  static_cast<unsigned long long>(client.tenant_id()));
    }

    if (do_run) {
      if (!opts.replay_path.empty()) {
        std::ifstream in(opts.replay_path, std::ios::binary);
        if (!in) {
          std::fprintf(stderr, "cannot read '%s'\n", opts.replay_path.c_str());
          return 1;
        }
        std::ostringstream content;
        content << in.rdbuf();
        const ServeClient::UploadReply upload =
            client.upload_trace(content.str(), opts.replay_path, opts.replay);
        opts.use_replay_app(upload.app, upload.procs);
        std::fprintf(stderr, "[replay] %s: %lld records, %lld files -> %s\n",
                     opts.replay_path.c_str(), upload.records, upload.files,
                     upload.app.c_str());
      }

      if (opts.grid) {
        const ExperimentGrid grid = opts.make_grid();
        // The daemon streams results in the same deterministic cell order
        // this local expansion produces (the grid request round-trips).
        const std::vector<GridCell> cells = grid.cells();
        std::vector<GridCellResult> rows;
        rows.reserve(cells.size());
        const std::size_t streamed =
            client.run_grid(grid, [&](const ServeClient::Reply& reply) {
              if (reply.cell.index >= cells.size()) {
                throw ProtocolError("grid cell index out of range");
              }
              rows.push_back(
                  GridCellResult{cells[reply.cell.index], reply.result});
            });
        std::fprintf(stderr, "[grid] %zu cells via %s\n", streamed,
                     address.c_str());
        GridResultSet results(std::move(rows));
        write_result_files(results, opts.out_csv, opts.out_jsonl);
      } else {
        const ServeClient::Reply reply = client.run(cfg);
        const ExperimentResult& r = reply.result;
        if (opts.hexfloat) {
          print_hexfloat_line(r);
        } else if (opts.csv) {
          print_csv_row(cfg, r);
        } else {
          std::printf("%s %s%s: exec %.2f min, energy %.2f kJ, events %lld\n",
                      r.app.c_str(), to_string(r.policy),
                      r.scheme ? " +scheme" : "", r.exec_minutes(),
                      r.energy_j.value() / 1'000.0,
                      static_cast<long long>(r.events));
          if (!reply.telemetry_json.empty()) {
            std::printf("telemetry: %s\n", reply.telemetry_json.c_str());
          }
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
