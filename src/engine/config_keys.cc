#include "engine/config_keys.h"

#include <array>
#include <cstdio>
#include <limits>

#include "util/parse.h"

namespace dasched {

void bad_value(std::string_view key, const char* expected,
               std::string_view value) {
  // dasched-lint: allow(hot-alloc): error path, the value is rejected anyway
  throw ConfigError(std::string(key), "expected " + std::string(expected) +
                                          ", got '" + std::string(value) +
                                          "'");
}

namespace {

int want_int(std::string_view key, std::string_view v) {
  const auto n = parse_i64(v);
  if (!n || *n < std::numeric_limits<int>::min() ||
      *n > std::numeric_limits<int>::max()) {
    bad_value(key, "a 32-bit integer", v);
  }
  return static_cast<int>(*n);
}

std::int64_t want_i64(std::string_view key, std::string_view v) {
  const auto n = parse_i64(v);
  if (!n) bad_value(key, "a 64-bit integer", v);
  return *n;
}

std::uint64_t want_u64(std::string_view key, std::string_view v) {
  const auto n = parse_u64(v);
  if (!n) bad_value(key, "an unsigned 64-bit integer", v);
  return *n;
}

double want_f64(std::string_view key, std::string_view v) {
  const auto x = parse_f64(v);
  if (!x) bad_value(key, "a number", v);
  return *x;
}

bool want_bool(std::string_view key, std::string_view v) {
  if (v == "0") return false;
  if (v == "1") return true;
  bad_value(key, "0|1", v);
}

template <typename... Args>
bool put(std::string& out, const char* fmt, Args... args) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  out.append(buf, static_cast<std::size_t>(n));
  return true;
}

bool put_int(std::string& out, long long v) { return put(out, "%lld", v); }

bool put_u64(std::string& out, std::uint64_t v) {
  return put(out, "%llu", static_cast<unsigned long long>(v));
}

// %.17g round-trips every double bit-exactly.
bool put_f64(std::string& out, double v) { return put(out, "%.17g", v); }

bool put_str(std::string& out, std::string_view v) {
  out += v;
  return true;
}

using Cfg = ExperimentConfig;
using Out = std::string;
using Sv = std::string_view;

// Wire order: format_keys emits the rows top to bottom.
constexpr std::array kKeys = {
    ConfigKey{"app", "--app", false, false,
        [](Sv, Sv v, Cfg& c) {
          // dasched-lint: allow(hot-alloc): capacity growth to high-water
          c.app.assign(v.data(), v.size());
        },
        [](const Cfg& c, Out& o) { return put_str(o, c.app); }},
    ConfigKey{"policy", "--policy", false, false,
        [](Sv k, Sv v, Cfg& c) {
          const auto p = parse_policy(v);
          if (!p) {
            bad_value(k, "default|simple|prediction|history|staggered", v);
          }
          c.policy = *p;
        },
        [](const Cfg& c, Out& o) { return put_str(o, to_string(c.policy)); }},
    ConfigKey{"scheme", "--scheme", true, false,
        [](Sv k, Sv v, Cfg& c) { c.use_scheme = want_bool(k, v); },
        [](const Cfg& c, Out& o) { return put_int(o, c.use_scheme); }},
    ConfigKey{"procs", "--procs", false, false,
        [](Sv k, Sv v, Cfg& c) { c.scale.num_processes = want_int(k, v); },
        [](const Cfg& c, Out& o) { return put_int(o, c.scale.num_processes); }},
    ConfigKey{"scale", "--scale", false, false,
        [](Sv k, Sv v, Cfg& c) { c.scale.factor = want_f64(k, v); },
        [](const Cfg& c, Out& o) { return put_f64(o, c.scale.factor); }},
    ConfigKey{"nodes", "--nodes", false, true,
        [](Sv k, Sv v, Cfg& c) { c.storage.num_io_nodes = want_int(k, v); },
        [](const Cfg& c, Out& o) { return put_int(o, c.storage.num_io_nodes); }},
    ConfigKey{"delta", "--delta", false, true,
        [](Sv k, Sv v, Cfg& c) { c.compile.sched.delta = want_int(k, v); },
        [](const Cfg& c, Out& o) { return put_int(o, c.compile.sched.delta); }},
    ConfigKey{"theta", "--theta", false, true,
        [](Sv k, Sv v, Cfg& c) { c.compile.sched.theta = want_int(k, v); },
        [](const Cfg& c, Out& o) { return put_int(o, c.compile.sched.theta); }},
    ConfigKey{"buffer_mib", "--buffer", false, true,
        [](Sv k, Sv v, Cfg& c) {
          c.runtime.buffer_capacity = mib(want_int(k, v));
        },
        [](const Cfg& c, Out& o) {
          return put_int(o, c.runtime.buffer_capacity.count() >> 20);
        }},
    ConfigKey{"cache_mib", "--cache", false, true,
        [](Sv k, Sv v, Cfg& c) {
          c.storage.node.cache_capacity = mib(want_int(k, v));
        },
        [](const Cfg& c, Out& o) {
          return put_int(o, c.storage.node.cache_capacity.count() >> 20);
        }},
    ConfigKey{"seed", "--seed", false, false,
        [](Sv k, Sv v, Cfg& c) { c.seed = want_u64(k, v); },
        [](const Cfg& c, Out& o) { return put_u64(o, c.seed); }},
    ConfigKey{"slack", "", false, true,
        [](Sv k, Sv v, Cfg& c) { c.max_slack = want_int(k, v); },
        [](const Cfg& c, Out& o) { return put_int(o, c.max_slack); }},
    ConfigKey{"audit", "--audit", true, false,
        [](Sv k, Sv v, Cfg& c) { c.audit = want_bool(k, v); },
        [](const Cfg& c, Out& o) { return put_int(o, c.audit); }},
    ConfigKey{"trace_level", "--trace-level", false, false,
        [](Sv k, Sv v, Cfg& c) {
          const auto level = parse_trace_level(v);
          if (!level) bad_value(k, "off|state|request|full", v);
          c.telemetry.level = *level;
        },
        [](const Cfg& c, Out& o) {
          return c.telemetry.enabled() &&
                 put_str(o, to_string(c.telemetry.level));
        }},
    // A trace directory implies state-level capture unless a level is set.
    ConfigKey{"trace_dir", "--trace", false, false,
        [](Sv, Sv v, Cfg& c) {
          // dasched-lint: allow(hot-alloc): telemetry runs opt into allocation
          c.telemetry.dir.assign(v.data(), v.size());
          if (c.telemetry.level == TraceLevel::kOff && !v.empty()) {
            c.telemetry.level = TraceLevel::kState;
          }
        },
        [](const Cfg& c, Out& o) {
          return c.telemetry.enabled() && !c.telemetry.dir.empty() &&
                 put_str(o, c.telemetry.dir);
        }},
};

using Rep = ReplayOptions;

// Upload-header order: the client writes the rows top to bottom, then the
// upload-only `name=` key.
constexpr std::array kReplayKeys = {
    ReplayKey{"format", "--replay-format", false, false,
        [](Sv k, Sv v, Rep& r) {
          const auto format = parse_trace_format(v);
          if (!format) bad_value(k, "auto|csv|jsonl|blk", v);
          r.format = *format;
        },
        [](const Rep& r, Out& o) { return put_str(o, to_string(r.format)); }},
    ReplayKey{"slot_us", "--replay-slot-us", false, false,
        [](Sv k, Sv v, Rep& r) { r.slot_us = want_i64(k, v); },
        [](const Rep& r, Out& o) { return put_int(o, r.slot_us); }},
    ReplayKey{"min_compute_us", "", false, false,
        [](Sv k, Sv v, Rep& r) { r.min_compute_us = want_i64(k, v); },
        [](const Rep& r, Out& o) { return put_int(o, r.min_compute_us); }},
    ReplayKey{"max_compute_us", "", false, false,
        [](Sv k, Sv v, Rep& r) { r.max_compute_us = want_i64(k, v); },
        [](const Rep& r, Out& o) { return put_int(o, r.max_compute_us); }},
    ReplayKey{"granularity", "", false, false,
        [](Sv k, Sv v, Rep& r) { r.granularity = want_int(k, v); },
        [](const Rep& r, Out& o) { return put_int(o, r.granularity); }},
    ReplayKey{"seed", "--replay-seed", false, false,
        [](Sv k, Sv v, Rep& r) { r.seed = want_u64(k, v); },
        [](const Rep& r, Out& o) { return put_u64(o, r.seed); }},
    ReplayKey{"jitter", "", false, false,
        [](Sv k, Sv v, Rep& r) { r.jitter_frac = want_f64(k, v); },
        [](const Rep& r, Out& o) { return put_f64(o, r.jitter_frac); }},
};

}  // namespace

std::span<const ConfigKey> config_keys() { return kKeys; }

std::span<const ReplayKey> replay_keys() { return kReplayKeys; }

}  // namespace dasched
