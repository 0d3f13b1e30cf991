// Trace-replay ingestion: external I/O traces as workloads.
//
// The six Table III applications are synthetic reconstructions; real
// evaluations replay production traces.  This front end parses external
// trace files into a canonical record list and lowers them — through the
// same profiling path madbench2 uses (compiler/trace_builder.h) — into the
// `CompiledProgram` the slack analysis and scheduler consume, so a replayed
// trace is a first-class App: runnable via `dasched_run --replay`, grid
// axes, the workspace, and daemon requests.
//
// Formats (docs in EXPERIMENTS.md "Trace replay"):
//   * native CSV:   `ts_us,proc,file,offset,bytes,op` — op is R or W,
//                    `#` comments and an optional header line allowed.
//   * native JSONL: one flat object per line with the same six keys.
//   * blk:          SNIA/blktrace-style `ts,proc,offset,bytes,op` — ts in
//                    seconds (fractional), one implicit file.
//
// Determinism: lowering is a pure function of (trace bytes, ReplayOptions).
// Files are registered in name-sorted order; records are sorted by
// timestamp with a seeded splitmix64 tie-break between processes that
// collide on a timestamp (per-process program order is always preserved —
// the parser rejects per-process timestamp regressions).  No wall-clock, no
// unordered-container iteration anywhere on the path, so `dasched_lint`
// stays green and a trace replays bit-identically in-process, through a
// single-tenant daemon, and under N concurrent tenants (DESIGN.md §17).
//
// Parsing never touches simulation state: a malformed trace throws
// `TraceParseError` (with file/line/field context) before any workspace or
// striping mutation, so a bad upload can never poison a warm tenant.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/program.h"
#include "storage/striping.h"
#include "util/units.h"
#include "workload/app.h"

namespace dasched {

/// Parse failure with precise provenance.  `what()` renders
/// `<source>:<line>: field '<field>': <detail>`.
class TraceParseError : public std::runtime_error {
 public:
  TraceParseError(const std::string& source, std::int64_t line,
                  std::string field, const std::string& detail);

  [[nodiscard]] const std::string& source() const noexcept { return source_; }
  [[nodiscard]] std::int64_t line() const noexcept { return line_; }
  [[nodiscard]] const std::string& field() const noexcept { return field_; }

 private:
  std::string source_;
  std::int64_t line_;
  std::string field_;
};

enum class TraceFormat : std::uint8_t {
  kAuto = 0,    // sniff: extension first, then the first data line
  kNativeCsv,   // ts_us,proc,file,offset,bytes,op
  kNativeJsonl, // same keys, one JSON object per line
  kBlk,         // ts,proc,offset,bytes,op (seconds; single implicit file)
};

[[nodiscard]] const char* to_string(TraceFormat f);
/// Parses auto|csv|jsonl|blk; nullopt otherwise.
[[nodiscard]] std::optional<TraceFormat> parse_trace_format(std::string_view s);

/// One canonical I/O record; `file` indexes ReplayTrace::files.
struct ReplayRecord {
  std::int64_t ts_us = 0;
  std::int32_t proc = 0;
  std::int32_t file = 0;
  Bytes offset = 0;
  Bytes bytes = 0;
  bool is_write = false;
};

struct ReplayFile {
  std::string name;
  Bytes size = 0;  // high-water mark of offset + bytes
};

struct ReplayTrace {
  /// Name-sorted; registration order on the striping map.
  std::vector<ReplayFile> files;
  /// Sorted by (ts_us, seeded proc tie-break, input order).
  std::vector<ReplayRecord> records;
  int num_processes = 0;
  /// The parse's source label (path or upload name), for diagnostics.
  std::string source;
};

struct ReplayOptions {
  TraceFormat format = TraceFormat::kAuto;
  /// Timestamp quantum: records within one quantum share a scheduling slot.
  std::int64_t slot_us = 10'000;
  /// Per-slot compute is the inter-slot timestamp gap, clamped to this
  /// range so one silent week in a trace cannot stall the simulation.
  std::int64_t min_compute_us = 1'000;
  std::int64_t max_compute_us = 5'000'000;
  /// Slot coarsening (the paper's d), applied after lowering.
  int granularity = 1;
  /// Seed for the cross-process timestamp tie-break and the optional
  /// compute jitter; part of the replayed app's identity (fingerprint).
  std::uint64_t seed = 1;
  /// > 0 adds deterministic per-process compute jitter of +-frac/2,
  /// mirroring the recorded jitter of the profiled paper apps.  0 = off.
  double jitter_frac = 0.0;

  friend bool operator==(const ReplayOptions&, const ReplayOptions&) = default;
};

/// Parses `content` (the full trace text) as `source`; throws
/// TraceParseError on any malformed line and ConfigError (util/
/// config_error.h, named by the daemon upload key) on invalid options.  Performs no I/O and touches no global state.
[[nodiscard]] ReplayTrace parse_replay_trace(std::string_view content,
                                             const std::string& source,
                                             const ReplayOptions& opts);

/// Reads and parses a trace file; std::runtime_error if unreadable.
[[nodiscard]] ReplayTrace parse_replay_file(const std::string& path,
                                            const ReplayOptions& opts);

/// Registers the trace's files on `striping` (name-sorted) and lowers the
/// records to per-process slot plans through the profiling front end.
[[nodiscard]] CompiledProgram lower_replay(const ReplayTrace& trace,
                                           StripingMap& striping,
                                           const ReplayOptions& opts);

/// Content fingerprint of (canonical records + files + options): the
/// identity under which the trace is registered.  Format-independent — the
/// same I/O sequence uploaded as CSV or JSONL hashes identically.
[[nodiscard]] std::uint64_t replay_fingerprint(const ReplayTrace& trace,
                                               const ReplayOptions& opts);

/// Registers the parsed trace as an App named `replay:<fingerprint-hex>`
/// with `fixed_processes = trace.num_processes`, and returns the stable
/// registry entry.  Content-addressed + first-wins registration makes
/// repeated/concurrent uploads of the same trace converge on one App.
const App& register_replay_trace(ReplayTrace trace, const ReplayOptions& opts);

/// parse_replay_file + register_replay_trace.
const App& register_replay_file(const std::string& path,
                                const ReplayOptions& opts);

}  // namespace dasched
