#include "serve/protocol.h"

#include <cstdio>
#include <cstring>

#include "engine/config_keys.h"
#include "util/parse.h"

namespace dasched::serve {

namespace {

// --- little-endian primitives over a reused byte buffer --------------------
// The appenders are the only allocation sites on the serialize path: the
// buffer grows to its high-water mark once and is reused afterwards.

void put_bytes(std::vector<std::uint8_t>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  // dasched-lint: allow(hot-alloc): reused buffer growth to high-water mark
  out.insert(out.end(), b, b + n);
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  // dasched-lint: allow(hot-alloc): reused buffer growth to high-water mark
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  put_bytes(out, b, 4);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  put_bytes(out, b, 8);
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  // The raw bit pattern: the codec must be bit-exact, not value-exact.
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  if (s.size() > 0xffff) throw ProtocolError("string field exceeds 64 KiB");
  put_u8(out, static_cast<std::uint8_t>(s.size() & 0xff));
  put_u8(out, static_cast<std::uint8_t>(s.size() >> 8));
  put_bytes(out, s.data(), s.size());
}

// --- bounds-checked readers ------------------------------------------------

struct Reader {
  std::span<const std::uint8_t> buf;
  std::size_t i = 0;

  void need(std::size_t n) const {
    if (buf.size() - i < n) throw ProtocolError("truncated result payload");
  }
  std::uint8_t u8() {
    need(1);
    return buf[i++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k) v |= static_cast<std::uint32_t>(buf[i++]) << (8 * k);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int k = 0; k < 8; ++k) v |= static_cast<std::uint64_t>(buf[i++]) << (8 * k);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::size_t lo = u8();
    const std::size_t hi = u8();
    const std::size_t n = lo | (hi << 8);
    need(n);
    std::string out(reinterpret_cast<const char*>(buf.data() + i), n);
    i += n;
    return out;
  }
};

// --- histogram -------------------------------------------------------------

void put_histogram(std::vector<std::uint8_t>& out, const DurationHistogram& h) {
  const auto& edges = h.edges_msec();
  const auto& counts = h.counts();
  if (edges.size() > 0xffffffffu) throw ProtocolError("histogram too large");
  put_u32(out, static_cast<std::uint32_t>(edges.size()));
  for (const double e : edges) put_f64(out, e);
  for (const std::int64_t c : counts) put_i64(out, c);
  put_i64(out, h.count());
  put_f64(out, h.total_msec());
}

DurationHistogram read_histogram(Reader& r) {
  const std::uint32_t n = r.u32();
  if (n > 1u << 20) throw ProtocolError("histogram edge count implausible");
  std::vector<double> edges(n);
  for (auto& e : edges) e = r.f64();
  std::vector<std::int64_t> counts(n + 1);
  for (auto& c : counts) c = r.i64();
  const std::int64_t total_count = r.i64();
  const double total_msec = r.f64();
  return DurationHistogram::from_parts(std::move(edges), std::move(counts),
                                       total_count, total_msec);
}

// --- request field helpers -------------------------------------------------

[[noreturn]] void bad_field(std::string_view key, const char* expected,
                            std::string_view value) {
  // dasched-lint: allow(hot-alloc): error path, request is rejected anyway
  throw ConfigError(std::string(key), "request field '" + std::string(key) +
                                          "': expected " + expected +
                                          ", got '" + std::string(value) + "'");
}

bool want_bool(std::string_view key, std::string_view v) {
  if (v == "0") return false;
  if (v == "1") return true;
  bad_field(key, "0|1", v);
}

/// Calls fn(key, value) for each non-empty `key=value` line of `payload`.
template <typename Fn>
void for_each_request_line(std::string_view payload, Fn fn) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    const std::size_t nl = payload.find('\n', pos);
    const std::string_view line = payload.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? payload.size() : nl + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) bad_field("line", "key=value", line);
    fn(line.substr(0, eq), line.substr(eq + 1));
  }
}

/// Calls fn(item) for each comma-separated piece of `list` (empty pieces are
/// rejected — a trailing comma is a client bug worth surfacing).
template <typename Fn>
void for_each_list_item(std::string_view key, std::string_view list, Fn fn) {
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = list.find(',', pos);
    const std::string_view item = list.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    if (item.empty()) bad_field(key, "a non-empty comma-separated list", list);
    fn(item);
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
}

}  // namespace

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloOk: return "hello_ok";
    case FrameType::kTraceUpload: return "trace_upload";
    case FrameType::kTraceOk: return "trace_ok";
    case FrameType::kRun: return "run";
    case FrameType::kGrid: return "grid";
    case FrameType::kResult: return "result";
    case FrameType::kTelemetry: return "telemetry";
    case FrameType::kDone: return "done";
    case FrameType::kError: return "error";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
  }
  return "?";
}

void append_frame(std::vector<std::uint8_t>& out, FrameType t,
                  std::span<const std::uint8_t> payload) {
  if (payload.size() + 1 > kMaxFrameBytes) {
    throw ProtocolError("frame exceeds kMaxFrameBytes");
  }
  put_u32(out, static_cast<std::uint32_t>(payload.size() + 1));
  put_u8(out, static_cast<std::uint8_t>(t));
  put_bytes(out, payload.data(), payload.size());
}

void append_frame(std::vector<std::uint8_t>& out, FrameType t,
                  std::string_view payload) {
  append_frame(out, t,
               std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(payload.data()),
                   payload.size()));
}

void parse_run_request(std::string_view payload, ExperimentConfig& cfg) {
  // Reset to defaults in place: assigning short/empty strings into the
  // reused config keeps their capacity, so a warm tenant parses without
  // touching the heap.
  cfg = ExperimentConfig{};
  for_each_request_line(payload, [&](std::string_view key,
                                     std::string_view value) {
    const ConfigKey* row = find_config_key(key);
    if (row == nullptr) bad_field(key, "a known request key", value);
    row->set(cfg, value);
  });
}

void format_run_request(const ExperimentConfig& cfg, std::string& out) {
  out.clear();
  format_config(cfg, out);
}

void parse_grid_request(std::string_view payload, ExperimentGrid& grid) {
  grid = ExperimentGrid{};
  ExperimentConfig base;
  bool saw_apps = false, saw_policies = false, saw_schemes = false;
  for_each_request_line(payload, [&](std::string_view key,
                                     std::string_view value) {
    if (key == "apps") {
      grid.apps.clear();
      for_each_list_item(key, value, [&](std::string_view item) {
        grid.apps.emplace_back(item);
      });
      saw_apps = true;
    } else if (key == "policies") {
      grid.policies.clear();
      for_each_list_item(key, value, [&](std::string_view item) {
        const auto policy = parse_policy(item);
        if (!policy) {
          bad_field(key, "default|simple|prediction|history|staggered", item);
        }
        grid.policies.push_back(*policy);
      });
      saw_policies = true;
    } else if (key == "schemes") {
      grid.schemes.clear();
      for_each_list_item(key, value, [&](std::string_view item) {
        grid.schemes.push_back(want_bool(key, item));
      });
      saw_schemes = true;
    } else if (key == "derive_seeds") {
      grid.derive_seeds = want_bool(key, value);
    } else if (key == "sweep") {
      const std::size_t colon = value.find(':');
      if (colon == std::string_view::npos || colon == 0) {
        bad_field(key, "name:v1,v2,...", value);
      }
      std::vector<double> values;
      for_each_list_item(key, value.substr(colon + 1),
                         [&](std::string_view item) {
                           const auto v = parse_f64(item);
                           if (!v) bad_field(key, "a number", item);
                           values.push_back(*v);
                         });
      grid.sweep = sweep_axis_by_name(std::string(value.substr(0, colon)),
                                      std::move(values));
    } else if (const ConfigKey* row = find_config_key(key)) {
      row->set(base, value);
    } else {
      bad_field(key, "a known grid request key", value);
    }
  });
  if (!saw_apps || !saw_policies || !saw_schemes) {
    bad_field("grid", "apps=, policies= and schemes= lists", payload);
  }
  grid.base_seed = base.seed;
  grid.base = std::move(base);
}

void format_grid_request(const ExperimentGrid& grid, std::string& out) {
  // The base config carries the grid's base seed so parse(format(g))
  // round-trips base_seed through the shared `seed=` run key.
  ExperimentConfig base = grid.base;
  base.seed = grid.base_seed;
  format_run_request(base, out);
  out += "apps=";
  for (std::size_t i = 0; i < grid.apps.size(); ++i) {
    if (i) out += ',';
    out += grid.apps[i];
  }
  out += "\npolicies=";
  for (std::size_t i = 0; i < grid.policies.size(); ++i) {
    if (i) out += ',';
    out += dasched::to_string(grid.policies[i]);
  }
  out += "\nschemes=";
  for (std::size_t i = 0; i < grid.schemes.size(); ++i) {
    if (i) out += ',';
    out += grid.schemes[i] ? '1' : '0';
  }
  out += '\n';
  if (!grid.sweep.empty()) {
    out += "sweep=";
    out += grid.sweep.key->key;
    out += ':';
    char buf[64];
    for (std::size_t i = 0; i < grid.sweep.values.size(); ++i) {
      if (i) out += ',';
      std::snprintf(buf, sizeof(buf), "%.17g", grid.sweep.values[i]);
      out += buf;
    }
    out += '\n';
  }
  out += grid.derive_seeds ? "derive_seeds=1\n" : "derive_seeds=0\n";
}

void serialize_result(const CellHeader& cell, const ExperimentResult& r,
                      std::vector<std::uint8_t>& out) {
  put_u32(out, cell.index);
  put_u8(out, cell.has_sweep ? 1 : 0);
  put_str(out, cell.sweep_name);
  put_f64(out, cell.sweep_value);

  put_str(out, r.app);
  put_u8(out, static_cast<std::uint8_t>(r.policy));
  put_u8(out, r.scheme ? 1 : 0);
  put_i64(out, r.exec_time.count());
  put_f64(out, r.energy_j.value());
  put_i64(out, r.events);
  put_u8(out, r.audited ? 1 : 0);
  put_i64(out, r.audit_violations);

  const StorageStats& st = r.storage;
  put_f64(out, st.energy_j.value());
  put_i64(out, st.requests);
  put_i64(out, st.disk_requests);
  put_i64(out, st.spin_downs);
  put_i64(out, st.spin_ups);
  put_i64(out, st.rpm_changes);
  put_f64(out, st.cache_hit_rate);
  put_histogram(out, st.idle_periods);
  if (st.per_node.size() > 0xffffffffu) throw ProtocolError("per_node too large");
  put_u32(out, static_cast<std::uint32_t>(st.per_node.size()));
  for (const IoNodeStats& n : st.per_node) {
    put_f64(out, n.energy_j.value());
    put_i64(out, n.requests);
    put_i64(out, n.disk_requests);
    put_i64(out, n.spin_downs);
    put_i64(out, n.spin_ups);
    put_i64(out, n.rpm_changes);
    put_i64(out, n.cache.hits);
    put_i64(out, n.cache.misses);
    put_i64(out, n.cache.insertions);
    put_i64(out, n.cache.evictions);
    put_i64(out, n.cache.invalidations);
    put_histogram(out, n.idle_periods);
  }

  const RuntimeStats& rt = r.runtime;
  put_i64(out, rt.buffer_hits);
  put_i64(out, rt.in_flight_hits);
  put_i64(out, rt.direct_reads);
  put_i64(out, rt.writes);
  put_i64(out, rt.prefetches);
  put_i64(out, rt.skipped_min_lead);
  put_i64(out, rt.buffer.reservations);
  put_i64(out, rt.buffer.full_rejections);
  put_i64(out, rt.buffer.consumed);
  put_i64(out, rt.buffer.consumed_in_flight);
  put_i64(out, rt.buffer.wasted);
  put_i64(out, rt.buffer.peak_bytes.count());

  put_i64(out, r.sched.scheduled);
  put_i64(out, r.sched.forced);
  put_i64(out, r.sched.theta_fallbacks);
  put_f64(out, r.sched.mean_advance_slots);
}

void deserialize_result(std::span<const std::uint8_t> payload, CellHeader& cell,
                        ExperimentResult& r) {
  Reader in{payload};
  cell.index = in.u32();
  cell.has_sweep = in.u8() != 0;
  cell.sweep_name = in.str();
  cell.sweep_value = in.f64();

  r.app = in.str();
  r.policy = static_cast<PolicyKind>(in.u8());
  r.scheme = in.u8() != 0;
  r.exec_time = SimTime{in.i64()};
  r.energy_j = Joules{in.f64()};
  r.events = in.i64();
  r.audited = in.u8() != 0;
  r.audit_violations = in.i64();

  StorageStats& st = r.storage;
  st.energy_j = Joules{in.f64()};
  st.requests = in.i64();
  st.disk_requests = in.i64();
  st.spin_downs = in.i64();
  st.spin_ups = in.i64();
  st.rpm_changes = in.i64();
  st.cache_hit_rate = in.f64();
  st.idle_periods = read_histogram(in);
  const std::uint32_t nodes = in.u32();
  if (nodes > 1u << 20) throw ProtocolError("per_node count implausible");
  st.per_node.clear();
  st.per_node.reserve(nodes);
  for (std::uint32_t k = 0; k < nodes; ++k) {
    IoNodeStats n;
    n.energy_j = Joules{in.f64()};
    n.requests = in.i64();
    n.disk_requests = in.i64();
    n.spin_downs = in.i64();
    n.spin_ups = in.i64();
    n.rpm_changes = in.i64();
    n.cache.hits = in.i64();
    n.cache.misses = in.i64();
    n.cache.insertions = in.i64();
    n.cache.evictions = in.i64();
    n.cache.invalidations = in.i64();
    n.idle_periods = read_histogram(in);
    st.per_node.push_back(std::move(n));
  }

  RuntimeStats& rt = r.runtime;
  rt.buffer_hits = in.i64();
  rt.in_flight_hits = in.i64();
  rt.direct_reads = in.i64();
  rt.writes = in.i64();
  rt.prefetches = in.i64();
  rt.skipped_min_lead = in.i64();
  rt.buffer.reservations = in.i64();
  rt.buffer.full_rejections = in.i64();
  rt.buffer.consumed = in.i64();
  rt.buffer.consumed_in_flight = in.i64();
  rt.buffer.wasted = in.i64();
  rt.buffer.peak_bytes = Bytes{in.i64()};

  r.sched.scheduled = in.i64();
  r.sched.forced = in.i64();
  r.sched.theta_fallbacks = in.i64();
  r.sched.mean_advance_slots = in.f64();

  r.telemetry = nullptr;  // summaries stream out-of-band (kTelemetry)
  if (in.i != payload.size()) {
    throw ProtocolError("trailing bytes after result payload");
  }
}

void format_error(const ErrorInfo& info, std::string& out) {
  out.clear();
  out += "kind=";
  out += info.kind;
  out += "\nfield=";
  out += info.field;
  out += "\nmessage=";
  // Newlines would break the line format; the only multi-line messages are
  // audit reports, which fold into spaces.
  for (const char c : info.message) out += c == '\n' ? ' ' : c;
  out += "\n";
}

ErrorInfo parse_error(std::string_view payload) {
  ErrorInfo info;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    const std::size_t nl = payload.find('\n', pos);
    const std::string_view line = payload.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? payload.size() : nl + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) continue;
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    if (key == "kind") {
      info.kind = std::string(value);
    } else if (key == "field") {
      info.field = std::string(value);
    } else if (key == "message") {
      info.message = std::string(value);
    }
  }
  return info;
}

}  // namespace dasched::serve
