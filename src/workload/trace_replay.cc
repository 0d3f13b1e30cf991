#include "workload/trace_replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "compiler/trace_builder.h"
#include "util/config_error.h"
#include "util/parse.h"
#include "util/rng.h"

namespace dasched {

namespace {

// A trace claiming more processes than this is almost certainly a field mixed
// up with an offset; real parallel traces are orders of magnitude smaller.
constexpr std::int32_t kMaxProcs = 16'384;
constexpr const char* kBlkImplicitFile = "trace.data";

[[noreturn]] void fail(const std::string& source, std::int64_t line,
                       const char* field, const std::string& detail) {
  throw TraceParseError(source, line, field, detail);
}

/// Splits `line` at commas into `out` (no escaping: native CSV field values
/// must not contain commas, which the parser enforces for file names).
/// Returns the field count, or -1 when the line has more fields than `cap`.
int split_csv(std::string_view line, std::string_view* out, int cap) {
  int n = 0;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (n == cap) return -1;
    out[n++] = line.substr(start, comma == std::string_view::npos
                                      ? std::string_view::npos
                                      : comma - start);
    if (comma == std::string_view::npos) return n;
    start = comma + 1;
  }
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

std::int64_t field_i64(std::string_view v, const std::string& source,
                       std::int64_t line, const char* field) {
  const auto parsed = parse_i64(trim(v));
  if (!parsed) {
    fail(source, line, field,
         "expected an integer, got '" + std::string(trim(v)) + "'");
  }
  return *parsed;
}

bool field_op(std::string_view v, const std::string& source, std::int64_t line) {
  const std::string_view t = trim(v);
  if (t == "R" || t == "r" || t == "read") return false;
  if (t == "W" || t == "w" || t == "write") return true;
  fail(source, line, "op", "expected R|W, got '" + std::string(t) + "'");
}

/// Record under construction: file still by name (interning happens after
/// the whole parse, against the name-sorted table).
struct RawRecord {
  std::int64_t ts_us = 0;
  std::int32_t proc = 0;
  std::string file;
  Bytes offset = 0;
  Bytes bytes = 0;
  bool is_write = false;
};

struct ParseState {
  const std::string& source;
  std::vector<RawRecord> records;
  /// last timestamp per process, for the monotonicity check.
  std::vector<std::int64_t> last_ts;

  explicit ParseState(const std::string& src) : source(src) {}

  void add(RawRecord rec, std::int64_t line) {
    if (rec.ts_us < 0) {
      fail(source, line, "ts", "timestamp must be >= 0");
    }
    if (rec.proc < 0 || rec.proc >= kMaxProcs) {
      fail(source, line, "proc",
           "process id must be in [0, " + std::to_string(kMaxProcs) + "), got " +
               std::to_string(rec.proc));
    }
    if (rec.file.empty()) fail(source, line, "file", "file name must be non-empty");
    for (const char c : rec.file) {
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(source, line, "file", "file name contains a control character");
      }
    }
    if (rec.offset < Bytes{0}) fail(source, line, "offset", "offset must be >= 0");
    if (rec.bytes <= Bytes{0}) {
      fail(source, line, "bytes",
           "op size must be > 0, got " + std::to_string(rec.bytes.count()));
    }
    if (rec.offset.count() >
        std::numeric_limits<std::int64_t>::max() - rec.bytes.count()) {
      fail(source, line, "offset", "offset + bytes overflows a 64-bit range");
    }
    if (static_cast<std::size_t>(rec.proc) >= last_ts.size()) {
      last_ts.resize(static_cast<std::size_t>(rec.proc) + 1,
                     std::numeric_limits<std::int64_t>::min());
    }
    auto& last = last_ts[static_cast<std::size_t>(rec.proc)];
    if (rec.ts_us < last) {
      fail(source, line, "ts",
           "timestamp regresses for process " + std::to_string(rec.proc) +
               " (" + std::to_string(rec.ts_us) + " < " + std::to_string(last) +
               "); per-process order must be non-decreasing");
    }
    last = rec.ts_us;
    records.push_back(std::move(rec));
  }
};

bool is_blank_or_comment(std::string_view line) {
  const std::string_view t = trim(line);
  return t.empty() || t.front() == '#';
}

void parse_native_csv_line(ParseState& st, std::string_view line,
                           std::int64_t lineno) {
  std::string_view f[7];
  const int n = split_csv(line, f, 7);
  if (n != 6) {
    fail(st.source, lineno, "line",
         "expected 6 comma-separated fields (ts_us,proc,file,offset,bytes,op), "
         "got " + std::to_string(n < 0 ? 7 : n));
  }
  RawRecord rec;
  rec.ts_us = field_i64(f[0], st.source, lineno, "ts_us");
  rec.proc = static_cast<std::int32_t>(field_i64(f[1], st.source, lineno, "proc"));
  rec.file = std::string(trim(f[2]));
  rec.offset = Bytes{field_i64(f[3], st.source, lineno, "offset")};
  rec.bytes = Bytes{field_i64(f[4], st.source, lineno, "bytes")};
  rec.is_write = field_op(f[5], st.source, lineno);
  st.add(std::move(rec), lineno);
}

void parse_blk_line(ParseState& st, std::string_view line, std::int64_t lineno) {
  std::string_view f[6];
  const int n = split_csv(line, f, 6);
  if (n != 5) {
    fail(st.source, lineno, "line",
         "expected 5 comma-separated fields (ts,proc,offset,bytes,op), got " +
             std::to_string(n < 0 ? 6 : n));
  }
  const auto ts_sec = parse_f64(trim(f[0]));
  if (!ts_sec || !std::isfinite(*ts_sec)) {
    fail(st.source, lineno, "ts",
         "expected seconds (float), got '" + std::string(trim(f[0])) + "'");
  }
  if (*ts_sec < 0.0 || *ts_sec > 9.0e12) {
    fail(st.source, lineno, "ts", "timestamp out of range");
  }
  RawRecord rec;
  rec.ts_us = std::llround(*ts_sec * 1e6);
  rec.proc = static_cast<std::int32_t>(field_i64(f[1], st.source, lineno, "proc"));
  rec.file = kBlkImplicitFile;
  rec.offset = Bytes{field_i64(f[2], st.source, lineno, "offset")};
  rec.bytes = Bytes{field_i64(f[3], st.source, lineno, "bytes")};
  rec.is_write = field_op(f[4], st.source, lineno);
  st.add(std::move(rec), lineno);
}

// --- minimal JSONL scanner -------------------------------------------------
// One flat object per line, string/integer values only — deliberately not a
// general JSON parser (no dependency budget for one); the schema is ours.

struct JsonCursor {
  std::string_view s;
  std::size_t i = 0;
  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  }
  bool eat(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
};

std::string_view json_string(JsonCursor& c, ParseState& st, std::int64_t line) {
  if (!c.eat('"')) fail(st.source, line, "line", "expected '\"' in JSON object");
  const std::size_t start = c.i;
  while (c.i < c.s.size() && c.s[c.i] != '"') {
    if (c.s[c.i] == '\\') {
      fail(st.source, line, "line", "escape sequences are not supported");
    }
    ++c.i;
  }
  if (c.i == c.s.size()) fail(st.source, line, "line", "unterminated string");
  const std::string_view out = c.s.substr(start, c.i - start);
  ++c.i;  // closing quote
  return out;
}

void parse_native_jsonl_line(ParseState& st, std::string_view line,
                             std::int64_t lineno) {
  JsonCursor c{trim(line)};
  if (!c.eat('{')) fail(st.source, lineno, "line", "expected a JSON object");
  RawRecord rec;
  bool saw_ts = false, saw_proc = false, saw_file = false, saw_offset = false,
       saw_bytes = false, saw_op = false;
  while (true) {
    const std::string_view key = json_string(c, st, lineno);
    if (!c.eat(':')) fail(st.source, lineno, "line", "expected ':' after key");
    if (key == "file" || key == "op") {
      const std::string_view v = json_string(c, st, lineno);
      if (key == "file") {
        rec.file = std::string(v);
        saw_file = true;
      } else {
        rec.is_write = field_op(v, st.source, lineno);
        saw_op = true;
      }
    } else {
      c.skip_ws();
      const std::size_t start = c.i;
      while (c.i < c.s.size() && c.s[c.i] != ',' && c.s[c.i] != '}' &&
             c.s[c.i] != ' ' && c.s[c.i] != '\t') {
        ++c.i;
      }
      const std::string_view num = c.s.substr(start, c.i - start);
      if (key == "ts_us") {
        rec.ts_us = field_i64(num, st.source, lineno, "ts_us");
        saw_ts = true;
      } else if (key == "proc") {
        rec.proc = static_cast<std::int32_t>(
            field_i64(num, st.source, lineno, "proc"));
        saw_proc = true;
      } else if (key == "offset") {
        rec.offset = Bytes{field_i64(num, st.source, lineno, "offset")};
        saw_offset = true;
      } else if (key == "bytes") {
        rec.bytes = Bytes{field_i64(num, st.source, lineno, "bytes")};
        saw_bytes = true;
      } else {
        fail(st.source, lineno, "line", "unknown key '" + std::string(key) + "'");
      }
    }
    if (c.eat(',')) continue;
    if (c.eat('}')) break;
    fail(st.source, lineno, "line", "expected ',' or '}' in JSON object");
  }
  c.skip_ws();
  if (c.i != c.s.size()) {
    fail(st.source, lineno, "line", "trailing characters after JSON object");
  }
  if (!saw_ts) fail(st.source, lineno, "ts_us", "missing key");
  if (!saw_proc) fail(st.source, lineno, "proc", "missing key");
  if (!saw_file) fail(st.source, lineno, "file", "missing key");
  if (!saw_offset) fail(st.source, lineno, "offset", "missing key");
  if (!saw_bytes) fail(st.source, lineno, "bytes", "missing key");
  if (!saw_op) fail(st.source, lineno, "op", "missing key");
  st.add(std::move(rec), lineno);
}

// ---------------------------------------------------------------------------

bool has_suffix(const std::string& s, const char* suffix) {
  const std::size_t n = std::string_view(suffix).size();
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

TraceFormat detect_format(std::string_view content, const std::string& source) {
  if (has_suffix(source, ".jsonl")) return TraceFormat::kNativeJsonl;
  if (has_suffix(source, ".blk")) return TraceFormat::kBlk;
  if (has_suffix(source, ".csv")) return TraceFormat::kNativeCsv;
  // Sniff the first non-blank, non-comment, non-header line.
  std::size_t pos = 0;
  while (pos <= content.size()) {
    const std::size_t nl = content.find('\n', pos);
    const std::string_view line = content.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? content.size() + 1 : nl + 1;
    if (is_blank_or_comment(line)) continue;
    const std::string_view t = trim(line);
    if (t.front() == '{') return TraceFormat::kNativeJsonl;
    if (t.substr(0, 2) == "ts") continue;  // header line: format-ambiguous
    std::string_view f[8];
    const int n = split_csv(t, f, 8);
    if (n == 6) return TraceFormat::kNativeCsv;
    if (n == 5) return TraceFormat::kBlk;
    fail(source, 1, "line",
         "cannot auto-detect the trace format (expected a JSON object, 6 CSV "
         "fields, or 5 blk fields); pass an explicit format");
  }
  fail(source, 1, "trace", "trace contains no records");
}

/// Each rejection names the option by its daemon upload key.
void validate_options(const ReplayOptions& opts) {
  if (opts.slot_us <= 0) {
    throw ConfigError("slot_us", "replay: slot_us must be > 0, got " +
                                     std::to_string(opts.slot_us));
  }
  if (opts.min_compute_us < 0 || opts.max_compute_us < opts.min_compute_us) {
    throw ConfigError(opts.min_compute_us < 0 ? "min_compute_us"
                                              : "max_compute_us",
                      "replay: need 0 <= min_compute_us <= max_compute_us");
  }
  if (opts.granularity < 1) {
    throw ConfigError("granularity", "replay: granularity must be >= 1, got " +
                                         std::to_string(opts.granularity));
  }
  if (!(opts.jitter_frac >= 0.0 && opts.jitter_frac <= 1.0)) {
    throw ConfigError("jitter", "replay: jitter_frac must be in [0, 1]");
  }
}

/// FNV-1a over a stream of 64-bit words (strings fold in byte-wise).
struct Fingerprint {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    word(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

}  // namespace

TraceParseError::TraceParseError(const std::string& source, std::int64_t line,
                                 std::string field, const std::string& detail)
    : std::runtime_error(source + ":" + std::to_string(line) + ": field '" +
                         field + "': " + detail),
      source_(source),
      line_(line),
      field_(std::move(field)) {}

const char* to_string(TraceFormat f) {
  switch (f) {
    case TraceFormat::kAuto:
      return "auto";
    case TraceFormat::kNativeCsv:
      return "csv";
    case TraceFormat::kNativeJsonl:
      return "jsonl";
    case TraceFormat::kBlk:
      return "blk";
  }
  return "?";
}

std::optional<TraceFormat> parse_trace_format(std::string_view s) {
  if (s == "auto") return TraceFormat::kAuto;
  if (s == "csv") return TraceFormat::kNativeCsv;
  if (s == "jsonl") return TraceFormat::kNativeJsonl;
  if (s == "blk") return TraceFormat::kBlk;
  return std::nullopt;
}

ReplayTrace parse_replay_trace(std::string_view content,
                               const std::string& source,
                               const ReplayOptions& opts) {
  validate_options(opts);
  TraceFormat format = opts.format;
  if (format == TraceFormat::kAuto) format = detect_format(content, source);

  ParseState st(source);
  std::size_t pos = 0;
  std::int64_t lineno = 0;
  bool header_allowed = format != TraceFormat::kNativeJsonl;
  while (pos <= content.size()) {
    const std::size_t nl = content.find('\n', pos);
    const std::string_view line = content.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? content.size() + 1 : nl + 1;
    ++lineno;
    if (is_blank_or_comment(line)) continue;
    if (header_allowed && trim(line).substr(0, 2) == "ts") {
      // Optional CSV header (`ts_us,proc,...` / `ts,proc,...`); only ever
      // the first data-bearing line.
      header_allowed = false;
      continue;
    }
    header_allowed = false;
    switch (format) {
      case TraceFormat::kNativeCsv:
        parse_native_csv_line(st, line, lineno);
        break;
      case TraceFormat::kNativeJsonl:
        parse_native_jsonl_line(st, line, lineno);
        break;
      case TraceFormat::kBlk:
        parse_blk_line(st, line, lineno);
        break;
      case TraceFormat::kAuto:
        break;  // resolved above
    }
  }
  if (st.records.empty()) {
    fail(source, lineno, "trace", "trace contains no records");
  }

  ReplayTrace trace;
  trace.source = source;

  // File table: name-sorted, deduplicated, sizes at the high-water mark.
  std::vector<std::string> names;
  names.reserve(st.records.size());
  for (const RawRecord& r : st.records) names.push_back(r.file);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  trace.files.reserve(names.size());
  for (std::string& n : names) trace.files.push_back(ReplayFile{std::move(n), 0});

  auto file_index = [&trace](const std::string& name) {
    const auto it = std::lower_bound(
        trace.files.begin(), trace.files.end(), name,
        [](const ReplayFile& f, const std::string& n) { return f.name < n; });
    return static_cast<std::int32_t>(it - trace.files.begin());
  };

  int max_proc = 0;
  trace.records.reserve(st.records.size());
  for (const RawRecord& r : st.records) {
    ReplayRecord rec;
    rec.ts_us = r.ts_us;
    rec.proc = r.proc;
    rec.file = file_index(r.file);
    rec.offset = r.offset;
    rec.bytes = r.bytes;
    rec.is_write = r.is_write;
    auto& f = trace.files[static_cast<std::size_t>(rec.file)];
    f.size = std::max(f.size, rec.offset + rec.bytes);
    max_proc = std::max(max_proc, static_cast<int>(rec.proc));
    trace.records.push_back(rec);
  }
  trace.num_processes = max_proc + 1;

  // Canonical order: timestamp-major; processes colliding on a timestamp are
  // interleaved by a seeded splitmix64 rank (deterministic, seed-keyed);
  // per-process program order is preserved (stable sort + the monotonicity
  // check above).
  std::stable_sort(trace.records.begin(), trace.records.end(),
                   [&opts](const ReplayRecord& a, const ReplayRecord& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     const std::uint64_t ra =
                         derive_seed(opts.seed, static_cast<std::uint64_t>(a.proc));
                     const std::uint64_t rb =
                         derive_seed(opts.seed, static_cast<std::uint64_t>(b.proc));
                     if (ra != rb) return ra < rb;
                     return a.proc < b.proc;
                   });
  return trace;
}

ReplayTrace parse_replay_file(const std::string& path,
                              const ReplayOptions& opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("replay: cannot open trace file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_replay_trace(buf.str(), path, opts);
}

CompiledProgram lower_replay(const ReplayTrace& trace, StripingMap& striping,
                             const ReplayOptions& opts) {
  validate_options(opts);
  std::vector<FileId> ids;
  ids.reserve(trace.files.size());
  for (const ReplayFile& f : trace.files) {
    ids.push_back(striping.create_file(f.name, f.size));
  }

  // Jitter streams: one per process, seeded from the replay seed so the
  // lowering stays a pure function of (trace, options).
  std::vector<Rng> jitter;
  if (opts.jitter_frac > 0.0) {
    jitter.reserve(static_cast<std::size_t>(trace.num_processes));
    for (int p = 0; p < trace.num_processes; ++p) {
      jitter.emplace_back(derive_seed(opts.seed, 0x6a697474ULL + p));
    }
  }

  TraceBuilder tb(trace.num_processes);
  std::size_t i = 0;
  std::int64_t prev_slot = -1;
  while (i < trace.records.size()) {
    const std::int64_t slot = trace.records[i].ts_us / opts.slot_us;
    // Compute gap: the simulated time between this occupied quantum and the
    // previous one (one quantum for the first), clamped to the options'
    // range so pathological gaps neither vanish nor stall the run.
    const std::int64_t gap_us =
        prev_slot < 0 ? opts.slot_us : (slot - prev_slot) * opts.slot_us;
    const std::int64_t compute_us =
        std::clamp(gap_us, opts.min_compute_us, opts.max_compute_us);
    for (int p = 0; p < trace.num_processes; ++p) {
      std::int64_t c = compute_us;
      if (!jitter.empty()) {
        const double u = jitter[static_cast<std::size_t>(p)].next_double();
        c = std::llround(static_cast<double>(c) *
                         (1.0 + opts.jitter_frac * (u - 0.5)));
        if (c < 1) c = 1;
      }
      tb.compute(p, SimTime{c});
    }
    for (; i < trace.records.size() &&
           trace.records[i].ts_us / opts.slot_us == slot;
         ++i) {
      const ReplayRecord& r = trace.records[i];
      const FileId f = ids[static_cast<std::size_t>(r.file)];
      if (r.is_write) {
        tb.write(r.proc, f, r.offset, r.bytes);
      } else {
        tb.read(r.proc, f, r.offset, r.bytes);
      }
    }
    tb.end_iteration();
    prev_slot = slot;
  }
  return tb.build(opts.granularity);
}

std::uint64_t replay_fingerprint(const ReplayTrace& trace,
                                 const ReplayOptions& opts) {
  Fingerprint fp;
  fp.word(static_cast<std::uint64_t>(trace.num_processes));
  fp.word(trace.files.size());
  for (const ReplayFile& f : trace.files) {
    fp.str(f.name);
    fp.word(static_cast<std::uint64_t>(f.size.count()));
  }
  fp.word(trace.records.size());
  for (const ReplayRecord& r : trace.records) {
    fp.word(static_cast<std::uint64_t>(r.ts_us));
    fp.word(static_cast<std::uint64_t>(r.proc));
    fp.word(static_cast<std::uint64_t>(r.file));
    fp.word(static_cast<std::uint64_t>(r.offset.count()));
    fp.word(static_cast<std::uint64_t>(r.bytes.count()));
    fp.byte(r.is_write ? 1 : 0);
  }
  fp.word(static_cast<std::uint64_t>(opts.slot_us));
  fp.word(static_cast<std::uint64_t>(opts.min_compute_us));
  fp.word(static_cast<std::uint64_t>(opts.max_compute_us));
  fp.word(static_cast<std::uint64_t>(opts.granularity));
  fp.word(opts.seed);
  std::uint64_t jbits;
  static_assert(sizeof(jbits) == sizeof(opts.jitter_frac));
  __builtin_memcpy(&jbits, &opts.jitter_frac, sizeof(jbits));
  fp.word(jbits);
  return fp.h;
}

const App& register_replay_trace(ReplayTrace trace, const ReplayOptions& opts) {
  validate_options(opts);
  const std::uint64_t fp = replay_fingerprint(trace, opts);
  char name[32];
  std::snprintf(name, sizeof(name), "replay:%016llx",
                static_cast<unsigned long long>(fp));

  App app;
  app.name = name;
  app.description = "replayed trace (" + trace.source + ")";
  app.uses_profiling = true;
  app.length_unit = kib(256);
  app.fixed_processes = trace.num_processes;
  // The closure owns the trace; shared_ptr keeps the App copyable (App holds
  // a std::function) without duplicating a large record vector per copy.
  auto shared = std::make_shared<const ReplayTrace>(std::move(trace));
  const ReplayOptions captured = opts;
  app.build = [shared, captured](StripingMap& striping,
                                 const WorkloadScale& scale) {
    if (scale.num_processes != shared->num_processes) {
      throw std::invalid_argument(
          "replay: the trace defines " + std::to_string(shared->num_processes) +
          " processes; run it with exactly that many (got " +
          std::to_string(scale.num_processes) + ")");
    }
    return lower_replay(*shared, striping, captured);
  };
  return register_app(std::move(app));
}

const App& register_replay_file(const std::string& path,
                                const ReplayOptions& opts) {
  return register_replay_trace(parse_replay_file(path, opts), opts);
}

}  // namespace dasched
