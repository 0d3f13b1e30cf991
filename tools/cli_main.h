// The exit-code contract shared by the dasched command-line tools.
//
// Every tool's `main` runs its body through `cli_main`, so no exception ever
// reaches std::terminate.  Bad input exits 2 with a one-line
// `field: message` diagnostic on stderr; any other failure exits 1:
//
//   ConfigError            2   `<field>: <message>`
//   TraceParseError        2   `<field>: <source>:<line>: ...`
//   std::out_of_range      2   `app: unknown application: <name>`
//   other std::exception   1   `<tool>: <message>`
//
// Usage errors (unknown flags, missing flag values) already exit 2 from
// the argument parser before the body runs anything; a malformed flag value
// throws ConfigError like any other bad input.
#pragma once

#include <cstdio>
#include <exception>
#include <stdexcept>

#include "driver/experiment.h"
#include "workload/trace_replay.h"

namespace dasched {

template <typename Body>
int cli_main(const char* tool, Body&& body) {
  try {
    return body();
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s: %s\n", e.field().c_str(), e.what());
    return 2;
  } catch (const TraceParseError& e) {
    std::fprintf(stderr, "%s: %s\n", e.field().c_str(), e.what());
    return 2;
  } catch (const std::out_of_range& e) {
    // app_by_name reports an unknown application this way.
    std::fprintf(stderr, "app: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return 1;
  }
}

}  // namespace dasched
