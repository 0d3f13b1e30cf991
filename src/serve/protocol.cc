#include "serve/protocol.h"

#include <bit>
#include <cstdio>
#include <stdexcept>

#include "engine/config_keys.h"
#include "util/parse.h"

namespace dasched::serve {

namespace {

// --- the result frame ------------------------------------------------------
//
// walk_result visits every field of (CellHeader, ExperimentResult) in frame
// order; it is the frame layout.  A Writer drives it over a const result to
// encode, a Reader over a mutable one to decode.  Both pick a field's
// encoding by its C++ type, so a field whose type has no encoding does not
// compile.

template <typename Io, typename Node>
void walk_node(Io& io, Node& n) {
  io(n.energy_j);
  io(n.requests);
  io(n.disk_requests);
  io(n.spin_downs);
  io(n.spin_ups);
  io(n.rpm_changes);
  io(n.cache.hits);
  io(n.cache.misses);
  io(n.cache.insertions);
  io(n.cache.evictions);
  io(n.cache.invalidations);
  io(n.idle_periods);
}

template <typename Io, typename Cell, typename Result>
void walk_result(Io& io, Cell& cell, Result& r) {
  io(cell.index);
  io(cell.has_sweep);
  io(cell.sweep_name);
  io(cell.sweep_value);

  io(r.app);
  io(r.policy);
  io(r.scheme);
  io(r.exec_time);
  io(r.energy_j);
  io(r.events);
  io(r.audited);
  io(r.audit_violations);

  auto& st = r.storage;
  io(st.energy_j);
  io(st.requests);
  io(st.disk_requests);
  io(st.spin_downs);
  io(st.spin_ups);
  io(st.rpm_changes);
  io(st.cache_hit_rate);
  io(st.idle_periods);
  io(st.per_node);

  auto& rt = r.runtime;
  io(rt.buffer_hits);
  io(rt.in_flight_hits);
  io(rt.direct_reads);
  io(rt.writes);
  io(rt.prefetches);
  io(rt.skipped_min_lead);
  io(rt.buffer.reservations);
  io(rt.buffer.full_rejections);
  io(rt.buffer.consumed);
  io(rt.buffer.consumed_in_flight);
  io(rt.buffer.wasted);
  io(rt.buffer.peak_bytes);

  io(r.sched.scheduled);
  io(r.sched.forced);
  io(r.sched.theta_fallbacks);
  io(r.sched.mean_advance_slots);
}

/// Little-endian encoder over a reused buffer.  Its appenders are the only
/// allocation sites on the serialize path: the buffer grows to its
/// high-water mark once and is reused afterwards.
struct Writer {
  std::vector<std::uint8_t>& out;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    // dasched-lint: allow(hot-alloc): reused buffer growth to high-water mark
    out.insert(out.end(), b, b + n);
  }
  void u8(std::uint8_t v) { bytes(&v, 1); }
  void u32(std::uint32_t v) {
    std::uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    bytes(b, 4);
  }
  void u64(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    bytes(b, 8);
  }
  void count(std::size_t n) {
    if (n > 0xffffffffu) throw ProtocolError("sequence exceeds 2^32 items");
    u32(static_cast<std::uint32_t>(n));
  }

  void operator()(std::uint32_t v) { u32(v); }
  void operator()(bool v) { u8(v ? 1 : 0); }
  void operator()(PolicyKind v) { u8(static_cast<std::uint8_t>(v)); }
  void operator()(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void operator()(SimTime v) { (*this)(v.count()); }
  void operator()(Bytes v) { (*this)(v.count()); }
  void operator()(Joules v) { (*this)(v.value()); }
  // The raw bit pattern: the codec must be bit-exact, not value-exact.
  void operator()(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void operator()(const std::string& s) {
    if (s.size() > 0xffff) throw ProtocolError("string field exceeds 64 KiB");
    u8(static_cast<std::uint8_t>(s.size() & 0xff));
    u8(static_cast<std::uint8_t>(s.size() >> 8));
    bytes(s.data(), s.size());
  }
  void operator()(const DurationHistogram& h) {
    count(h.edges_msec().size());
    for (const double e : h.edges_msec()) (*this)(e);
    for (const std::int64_t c : h.counts()) (*this)(c);
    (*this)(h.count());
    (*this)(h.total_msec());
  }
  void operator()(const std::vector<IoNodeStats>& nodes) {
    count(nodes.size());
    for (const IoNodeStats& n : nodes) walk_node(*this, n);
  }
};

/// The fewest bytes a per-node entry takes: its encoding with an edgeless
/// histogram.
std::size_t min_node_bytes() {
  static const std::size_t bytes = [] {
    IoNodeStats empty;
    empty.idle_periods = DurationHistogram(std::vector<double>{});
    std::vector<std::uint8_t> buf;
    Writer writer{buf};
    walk_node(writer, empty);
    return buf.size();
  }();
  return bytes;
}

/// Bounds-checked decoder: every read checks the bytes left first, and
/// every count is checked against them before anything is sized for it.
struct Reader {
  std::span<const std::uint8_t> buf;
  std::size_t i = 0;

  [[nodiscard]] std::size_t left() const { return buf.size() - i; }
  void need(std::size_t n) const {
    if (left() < n) throw ProtocolError("truncated result payload");
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
  /// A count of items that take at least `min_bytes` each.
  std::size_t count(std::size_t min_bytes) {
    const std::uint32_t n = u32();
    if (n > left() / min_bytes) {
      throw ProtocolError("count exceeds the bytes left in the result payload");
    }
    return n;
  }

  void operator()(std::uint32_t& v) { v = u32(); }
  void operator()(bool& v) {
    const std::uint8_t b = u8();
    if (b > 1) throw ProtocolError("flag byte is neither 0 nor 1");
    v = b == 1;
  }
  void operator()(PolicyKind& v) {
    const std::uint8_t b = u8();
    if (b > static_cast<std::uint8_t>(PolicyKind::kStaggered)) {
      throw ProtocolError("policy byte outside PolicyKind");
    }
    v = static_cast<PolicyKind>(b);
  }
  void operator()(std::int64_t& v) { v = static_cast<std::int64_t>(u64()); }
  void operator()(SimTime& v) { v = SimTime{static_cast<std::int64_t>(u64())}; }
  void operator()(Bytes& v) { v = Bytes{static_cast<std::int64_t>(u64())}; }
  void operator()(Joules& v) { v = Joules{std::bit_cast<double>(u64())}; }
  void operator()(double& v) { v = std::bit_cast<double>(u64()); }
  void operator()(std::string& s) {
    const std::size_t lo = u8();
    const std::size_t hi = u8();
    const std::size_t n = lo | (hi << 8);
    need(n);
    s.assign(reinterpret_cast<const char*>(buf.data() + i), n);
    i += n;
  }
  void operator()(DurationHistogram& h) {
    // Each edge brings its own 8 bytes and one 8-byte bucket count.
    const std::size_t n = count(16);
    std::vector<double> edges(n);
    for (double& e : edges) (*this)(e);
    std::vector<std::int64_t> counts(n + 1);
    for (std::int64_t& c : counts) (*this)(c);
    std::int64_t total_count = 0;
    double total_msec = 0.0;
    (*this)(total_count);
    (*this)(total_msec);
    try {
      h = DurationHistogram::from_parts(std::move(edges), std::move(counts),
                                        total_count, total_msec);
    } catch (const std::invalid_argument& e) {
      throw ProtocolError(e.what());
    }
  }
  void operator()(std::vector<IoNodeStats>& nodes) {
    const std::size_t n = count(min_node_bytes());
    nodes.clear();
    nodes.resize(n);
    for (IoNodeStats& node : nodes) walk_node(*this, node);
  }
};

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
  Writer writer{out};
  writer.u32(static_cast<std::uint32_t>(payload.size() + 1));
  writer.u8(static_cast<std::uint8_t>(t));
  writer.bytes(payload.data(), payload.size());
}

void append_frame(std::vector<std::uint8_t>& out, FrameType t,
                  std::string_view payload) {
  append_frame(out, t,
               std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(payload.data()),
                   payload.size()));
}

void reject_line(LineError error, std::string_view line) {
  // dasched-lint: allow(hot-alloc): error path, the payload is rejected
  const std::string message = "line '" + std::string(line) + "' is not key=value";
  if (error == LineError::kConfig) throw ConfigError("line", message);
  throw ProtocolError(message);
}

void parse_run_request(std::string_view payload, ExperimentConfig& cfg) {
  // Reset to defaults in place: assigning short/empty strings into the
  // reused config keeps their capacity, so a warm tenant parses without
  // touching the heap.
  cfg = ExperimentConfig{};
  for_each_key_value(payload, LineError::kConfig, [&](std::string_view key,
                                                      std::string_view value) {
    const ConfigKey* row = find_key(config_keys(), key);
    if (row == nullptr) bad_field(key, "a known request key", value);
    row->set(cfg, value);
  });
}

void format_run_request(const ExperimentConfig& cfg, std::string& out) {
  out.clear();
  format_keys(config_keys(), cfg, out);
}

void parse_grid_request(std::string_view payload, ExperimentGrid& grid) {
  grid = ExperimentGrid{};
  ExperimentConfig base;
  bool saw_apps = false, saw_policies = false, saw_schemes = false;
  for_each_key_value(payload, LineError::kConfig, [&](std::string_view key,
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
    } else if (const ConfigKey* row = find_key(config_keys(), key)) {
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

std::string_view parse_trace_upload(std::string_view payload,
                                    ReplayOptions& opts, std::string& name) {
  opts = ReplayOptions{};
  name = "upload";
  // The header ends at the first blank line; without one, all is header.
  const std::size_t sep = payload.find("\n\n");
  const std::string_view header = payload.substr(0, sep);
  for_each_key_value(header, LineError::kConfig, [&](std::string_view key,
                                                     std::string_view value) {
    if (key == "name") {
      name = value;
    } else if (const ReplayKey* row = find_key(replay_keys(), key)) {
      row->set(opts, value);
    } else {
      bad_field(key, "a known trace upload key", value);
    }
  });
  return sep == std::string_view::npos ? std::string_view{}
                                       : payload.substr(sep + 2);
}

void format_trace_upload(const ReplayOptions& opts, std::string_view name,
                         std::string_view body, std::string& out) {
  out.clear();
  format_keys(replay_keys(), opts, out);
  out += "name=";
  out += name;
  out += "\n\n";  // header/body separator
  out += body;
}

void serialize_result(const CellHeader& cell, const ExperimentResult& r,
                      std::vector<std::uint8_t>& out) {
  Writer writer{out};
  walk_result(writer, cell, r);
}

void deserialize_result(std::span<const std::uint8_t> payload, CellHeader& cell,
                        ExperimentResult& r) {
  Reader reader{payload};
  walk_result(reader, cell, r);
  r.telemetry = nullptr;  // summaries stream out-of-band (kTelemetry)
  if (reader.left() != 0) {
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
  for_each_key_value(payload, LineError::kProtocol,
                     [&](std::string_view key, std::string_view value) {
                       if (key == "kind") {
                         info.kind = value;
                       } else if (key == "field") {
                         info.field = value;
                       } else if (key == "message") {
                         info.message = value;
                       }
                     });
  return info;
}

}  // namespace dasched::serve
