// dasched_serve — the scheduling-as-a-service daemon (DESIGN.md §17).
//
// Listens on a unix-domain or loopback-TCP socket and serves
// compile-and-schedule requests: single runs, grid jobs, and trace-replay
// uploads (tools/dasched_client.cc is the matching client).  One connection
// = one tenant = one warm ExperimentWorkspace, so a tenant's second and
// later requests reuse the full simulation stack allocation-free.
//
//   dasched_serve --socket unix:/tmp/dasched.sock
//   dasched_serve --socket tcp:0        # ephemeral port, printed on stdout
//
// The resolved address is printed to stdout (flushed) once the daemon is
// accepting, so scripts can `read` it.  SIGINT/SIGTERM or a client
// --shutdown drain gracefully.  Exit codes follow dasched_run
// (tools/cli_main.h): a malformed --socket address exits 2, a bind or
// listen failure exits 1.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "cli_main.h"
#include "serve/server.h"
#include "util/parse.h"

using namespace dasched;
using namespace dasched::serve;

namespace {

[[noreturn]] void usage(const char* argv0, int code) {
  std::printf(
      "usage: %s [options]\n"
      "  --socket ADDR   unix:PATH or tcp:PORT (tcp binds 127.0.0.1 only;\n"
      "                  tcp:0 = ephemeral, resolved address printed)\n"
      "                  default: DASCHED_SERVE_SOCKET, then unix:dasched.sock\n"
      "  --tenants N     concurrent-connection cap (default:\n"
      "                  DASCHED_SERVE_TENANTS, then 8)\n"
      "  --timeout-ms N  per-frame read timeout; 0 = wait forever (default:\n"
      "                  DASCHED_SERVE_TIMEOUT_MS, then 30000)\n"
      "  --verbose       log connections/requests to stderr\n"
      "  --help          this text\n",
      argv0);
  std::exit(code);
}

int run_cli(int argc, char** argv) {
  ServeOptions opts = serve_options_from_env();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (arg == "--socket") {
      opts.address = value();
    } else if (arg == "--tenants") {
      const auto v = parse_i64(value());
      if (!v || *v < 1) die_invalid_value("--tenants", argv[i], "an integer >= 1");
      opts.max_tenants = static_cast<int>(*v);
    } else if (arg == "--timeout-ms") {
      const auto v = parse_i64(value());
      if (!v || *v < 0) die_invalid_value("--timeout-ms", argv[i], "an integer >= 0");
      opts.request_timeout_ms = static_cast<int>(*v);
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0], 2);
    }
  }

  // Block SIGINT/SIGTERM in every thread; a dedicated watcher turns them
  // into a graceful request_shutdown() (signal handlers cannot take locks).
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  ServeServer server(opts);
  server.start();
  std::printf("%s\n", server.address().c_str());
  std::fflush(stdout);

  std::thread([&server, set] {
    int sig = 0;
    sigwait(&set, &sig);
    server.request_shutdown();
  }).detach();

  server.wait();
  if (opts.verbose) {
    std::fprintf(stderr,
                 "[dasched_serve] drained: %llu accepted, %llu rejected, "
                 "%llu requests\n",
                 static_cast<unsigned long long>(server.connections_accepted()),
                 static_cast<unsigned long long>(server.connections_rejected()),
                 static_cast<unsigned long long>(server.requests_served()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli_main("dasched_serve", [&] { return run_cli(argc, argv); });
}
