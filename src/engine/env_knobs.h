// Strict environment-knob parsing.
//
// Scale/thread knobs steer every bench and grid run, so a typo like
// `DASCHED_BENCH_PROCS=abc` must stop the process with a clear message
// instead of silently becoming 0 (atoi) and producing a nonsense run.
#pragma once

#include <string>

#include "telemetry/events.h"

namespace dasched {

/// Environment lookups with a fallback, parsed by util/parse.h (the whole
/// value, no surrounding whitespace).  A set-but-malformed value is fatal:
/// prints `<name>: invalid value '<v>'` to stderr and exits with status 2.
[[nodiscard]] double env_double(const char* name, double fallback);
[[nodiscard]] int env_int(const char* name, int fallback);

/// Raw environment lookup; `fallback` when unset (any set value is valid).
[[nodiscard]] std::string env_string(const char* name, const char* fallback);

/// Telemetry capture from the environment: DASCHED_TRACE names the output
/// directory and enables tracing; DASCHED_TRACE_LEVEL selects
/// {state,request,full} (default "state", "off" disables).  A malformed
/// level is fatal, matching the other knobs.
[[nodiscard]] TelemetryConfig telemetry_from_env();

}  // namespace dasched
