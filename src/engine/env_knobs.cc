#include "engine/env_knobs.h"

#include <cstdlib>
#include <limits>

#include "util/parse.h"

namespace dasched {

namespace {

// The fatal path is shared with every other strict knob in the tree
// (util/parse.h), including the ones below this library's link level.
[[noreturn]] void die(const char* name, const char* value, const char* kind) {
  die_invalid_value(name, value, kind);
}

}  // namespace

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const auto parsed = parse_f64(v);
  if (!parsed) die(name, v, "a number");
  return *parsed;
}

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const auto parsed = parse_i64(v);
  if (!parsed || *parsed < std::numeric_limits<int>::min() ||
      *parsed > std::numeric_limits<int>::max()) {
    die(name, v, "an integer");
  }
  return static_cast<int>(*parsed);
}

std::string env_string(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : v;
}

TelemetryConfig telemetry_from_env() {
  TelemetryConfig cfg;
  cfg.dir = env_string("DASCHED_TRACE", "");
  if (cfg.dir.empty()) return cfg;  // level stays kOff: capture disabled
  const std::string level = env_string("DASCHED_TRACE_LEVEL", "state");
  const auto parsed = parse_trace_level(level);
  if (!parsed) {
    die("DASCHED_TRACE_LEVEL", level.c_str(), "off|state|request|full");
  }
  cfg.level = *parsed;
  if (cfg.level == TraceLevel::kOff) cfg.dir.clear();
  return cfg;
}

}  // namespace dasched
