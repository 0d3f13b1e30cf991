// trace_dump — inspect and convert binary telemetry traces.
//
// Default mode pretty-prints a trace.bin (one line per event, decoded per
// kind); the conversion modes re-derive the other artifacts offline so a
// captured trace.bin is self-sufficient:
//
//   trace_dump runs/cell_0/trace.bin             # pretty-print
//   trace_dump --head 50 trace.bin               # first 50 events only
//   trace_dump --chrome trace.bin > trace.json   # Chrome trace_event JSON
//   trace_dump --summary trace.bin               # analytics summary JSON
//
// Exit codes follow dasched_run (tools/cli_main.h): a file that is not a
// readable dasched trace exits 2 with `trace: <path>: ...` on stderr.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "cli_main.h"
#include "disk/disk.h"
#include "telemetry/analytics.h"
#include "telemetry/events.h"
#include "telemetry/export.h"
#include "telemetry/trace_io.h"
#include "util/parse.h"

using namespace dasched;

namespace {

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s [--chrome | --summary] [--head N] TRACE.BIN\n"
               "  --chrome   convert to Chrome trace_event JSON (stdout)\n"
               "  --summary  fold into the analytics summary JSON (stdout)\n"
               "  --head N   pretty-print only the first N events\n",
               argv0);
  std::exit(code);
}

const char* decision_name(std::uint32_t aux) {
  return aux < static_cast<std::uint32_t>(kNumPolicyDecisions)
             ? to_string(static_cast<PolicyDecision>(aux))
             : "?";
}

const char* state_name(std::uint32_t s) {
  return s < static_cast<std::uint32_t>(kNumDiskStates)
             ? to_string(static_cast<DiskState>(s))
             : "?";
}

void print_event(const TraceEvent& ev) {
  std::printf("%12lld  %-18s", static_cast<long long>(ev.time.count()),
              to_string(ev.event_kind()));
  switch (ev.event_kind()) {
    case TraceEventKind::kStateChange:
      std::printf("  disk=%u  %s -> %s  rpm=%llu", ev.subject,
                  state_name(ev.aux & 0xffu), state_name(ev.aux >> 8),
                  static_cast<unsigned long long>(ev.arg0));
      break;
    case TraceEventKind::kEnergyAccrued:
      std::printf("  disk=%u  state=%s  %.9g J over %llu us", ev.subject,
                  state_name(ev.aux), ev.arg0_double(),
                  static_cast<unsigned long long>(ev.arg1));
      break;
    case TraceEventKind::kStreamIdleBegin:
      std::printf("  disk=%u", ev.subject);
      break;
    case TraceEventKind::kStreamIdleEnd:
      std::printf("  disk=%u  duration=%llu us%s", ev.subject,
                  static_cast<unsigned long long>(ev.arg0),
                  ev.aux != 0 ? "" : "  (not counted)");
      break;
    case TraceEventKind::kPolicyAction:
      std::printf("  disk=%u  %s  predicted=%llu us  rpm=%llu", ev.subject,
                  decision_name(ev.aux),
                  static_cast<unsigned long long>(ev.arg0),
                  static_cast<unsigned long long>(ev.arg1));
      break;
    case TraceEventKind::kIdleObserved:
      std::printf("  disk=%u  predicted=%llu us  actual=%llu us", ev.subject,
                  static_cast<unsigned long long>(ev.arg0),
                  static_cast<unsigned long long>(ev.arg1));
      break;
    case TraceEventKind::kDiskFinalized:
      std::printf("  disk=%u  energy=%.9g J", ev.subject, ev.arg0_double());
      break;
    case TraceEventKind::kRequestSubmitted:
    case TraceEventKind::kServiceStart:
      std::printf("  disk=%u  %s%s  offset=%llu  size=%llu", ev.subject,
                  (ev.aux & 1u) != 0 ? "write" : "read",
                  (ev.aux & 2u) != 0 ? " (background)" : "",
                  static_cast<unsigned long long>(ev.arg0),
                  static_cast<unsigned long long>(ev.arg1));
      break;
    case TraceEventKind::kServiceComplete:
      std::printf("  disk=%u  service=%llu us", ev.subject,
                  static_cast<unsigned long long>(ev.arg0));
      break;
    case TraceEventKind::kQueueDepth:
      std::printf("  disk=%u  depth=%llu", ev.subject,
                  static_cast<unsigned long long>(ev.arg0));
      break;
    case TraceEventKind::kNodeRead:
      std::printf("  node=%u  offset=%llu  size=%llu%s", ev.subject,
                  static_cast<unsigned long long>(ev.arg0),
                  static_cast<unsigned long long>(ev.arg1),
                  ev.aux != 0 ? "  (background)" : "");
      break;
    case TraceEventKind::kNodeWrite:
      std::printf("  node=%u  offset=%llu  size=%llu", ev.subject,
                  static_cast<unsigned long long>(ev.arg0),
                  static_cast<unsigned long long>(ev.arg1));
      break;
    case TraceEventKind::kBlockLookup:
      std::printf("  node=%u  block=%llu  %s", ev.subject,
                  static_cast<unsigned long long>(ev.arg0),
                  ev.aux != 0 ? "hit" : "miss");
      break;
    case TraceEventKind::kPrefetchIssued:
      std::printf("  node=%u  block=%llu", ev.subject,
                  static_cast<unsigned long long>(ev.arg0));
      break;
    case TraceEventKind::kDiskRequestsIssued:
      std::printf("  node=%u  ops=%llu", ev.subject,
                  static_cast<unsigned long long>(ev.arg0));
      break;
    case TraceEventKind::kRequestRouted:
      std::printf("  file=%u  %s  offset=%llu  size=%llu  pieces=%u",
                  ev.subject, (ev.aux & 1u) != 0 ? "write" : "read",
                  static_cast<unsigned long long>(ev.arg0),
                  static_cast<unsigned long long>(ev.arg1), ev.aux >> 1);
      break;
    case TraceEventKind::kAccessPlaced:
      std::printf("  process=%u  id=%llu  slot=%u  original=%u%s%s",
                  ev.subject, static_cast<unsigned long long>(ev.arg1),
                  static_cast<std::uint32_t>(ev.arg0 & 0xffffffffu),
                  static_cast<std::uint32_t>(ev.arg0 >> 32),
                  (ev.aux & 1u) != 0 ? "  forced" : "",
                  (ev.aux & 2u) != 0 ? "  theta-fallback" : "");
      break;
    case TraceEventKind::kEventDispatched:
      std::printf("  seq=%llu", static_cast<unsigned long long>(ev.arg0));
      break;
  }
  std::printf("\n");
}

int run_cli(int argc, char** argv) {
  bool chrome = false;
  bool summary = false;
  long long head = -1;
  std::string path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--chrome") {
      chrome = true;
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--head") {
      if (i + 1 >= argc) usage(argv[0], 2);
      const auto v = parse_i64(argv[++i]);
      if (!v) die_invalid_value("--head", argv[i], "integer");
      head = *v;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0], 2);
    } else if (path.empty()) {
      path = arg;
    } else {
      usage(argv[0], 2);
    }
  }
  if (path.empty() || (chrome && summary)) usage(argv[0], 2);

  const auto trace = load_trace(path);
  if (!trace) {
    throw ConfigError("trace", path + ": not a readable dasched trace");
  }

  if (chrome) {
    write_chrome_trace(std::cout, trace->events, trace->meta);
    return 0;
  }
  if (summary) {
    write_summary_json(std::cout,
                       analyze_trace(trace->events, trace->meta));
    return 0;
  }

  const TraceMeta& m = trace->meta;
  std::printf(
      "# app=%s policy=%d scheme=%d seed=%" PRIu64
      " nodes=%d disks/node=%d level=%s end=%lld us events=%zu\n",
      m.app.c_str(), m.policy, m.scheme ? 1 : 0, m.seed, m.num_nodes,
      m.disks_per_node, to_string(m.level), static_cast<long long>(m.end_time.count()),
      trace->events.size());
  long long printed = 0;
  for (const TraceEvent& ev : trace->events) {
    if (head >= 0 && printed >= head) {
      std::printf("... (%zu more events)\n",
                  trace->events.size() - static_cast<std::size_t>(printed));
      break;
    }
    print_event(ev);
    printed += 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli_main("trace_dump", [&] { return run_cli(argc, argv); });
}
