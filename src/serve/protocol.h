// Wire protocol of the scheduling-as-a-service daemon (DESIGN.md §17).
//
// Frame layout (little-endian):
//
//   uint32  length      // bytes that follow (type + payload); 0 < length
//   uint8   type        // FrameType
//   bytes   payload     // length - 1 bytes
//
// Control payloads (hello, run/grid requests, trace-upload headers, replies,
// errors) are `key=value` lines — auditable with strings(1), trivially
// extensible, and parseable without allocation (std::from_chars over
// string_views into a reused config), all through one line scanner.
// Result payloads are a bit-exact binary codec of ExperimentResult: every
// double crosses the wire as its raw 64-bit pattern, so a client-side
// hexfloat probe over a streamed result is byte-identical to an in-process
// run — the protocol cannot blur the bit-identity story the rest of the
// tree enforces.
//
// Request flow (client → server / server → client):
//   kHello          → kHelloOk           version + tenant banner
//   kTraceUpload    → kTraceOk | kError  registers a replayed trace app
//   kRun            → kResult [kTelemetry] kDone | kError
//   kGrid           → kResult* kDone | kError   (one kResult per cell)
//   kPing           → kPong
//   kShutdown       → kDone, then the server drains and exits
//
// Telemetry summaries stream as a separate JSON-text frame (kTelemetry)
// rather than being folded into the binary codec: the summary is a human
// artifact, and keeping it out-of-band keeps the result codec closed under
// bit-identity.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "driver/experiment.h"
#include "engine/experiment_grid.h"
#include "util/annotations.h"
#include "workload/trace_replay.h"

namespace dasched::serve {

/// Protocol version, exchanged in hello.  Bump on any wire change.
inline constexpr std::uint32_t kProtocolVersion = 3;

/// Hard cap on one frame (type + payload); oversized frames are a protocol
/// error, closing the connection before a hostile length can balloon memory.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kTraceUpload = 3,
  kTraceOk = 4,
  kRun = 5,
  kGrid = 6,
  kResult = 7,
  kTelemetry = 8,
  kDone = 9,
  kError = 10,
  kShutdown = 11,
  kPing = 12,
  kPong = 13,
};

[[nodiscard]] const char* to_string(FrameType t);

/// Malformed frame/payload; the server answers kError, the client throws.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& message)
      : std::runtime_error(message) {}
};

// --- frame writer ----------------------------------------------------------

/// Appends one framed message to `out` (which is reused across requests by
/// both sides; append never shrinks).
void append_frame(std::vector<std::uint8_t>& out, FrameType t,
                  std::span<const std::uint8_t> payload);
void append_frame(std::vector<std::uint8_t>& out, FrameType t,
                  std::string_view payload);

// --- text payloads ---------------------------------------------------------

/// A received payload's bytes as text.
[[nodiscard]] inline std::string_view as_text(
    std::span<const std::uint8_t> payload) {
  return {reinterpret_cast<const char*>(payload.data()), payload.size()};
}

/// What a line without `=` throws: a request parser answers ConfigError
/// naming field `line` (the tenant survives it); a client reading a reply
/// throws ProtocolError.
enum class LineError : std::uint8_t { kConfig, kProtocol };

[[noreturn]] void reject_line(LineError error, std::string_view line);

/// The one `key=value` scanner of every text payload: calls fn(key, value)
/// for each non-empty line of `payload`.  Never allocates.
template <typename Fn>
void for_each_key_value(std::string_view payload, LineError error, Fn&& fn) {
  while (!payload.empty()) {
    const std::size_t nl = payload.find('\n');
    const std::string_view line = payload.substr(0, nl);
    payload.remove_prefix(nl == std::string_view::npos ? payload.size()
                                                       : nl + 1);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) reject_line(error, line);
    fn(line.substr(0, eq), line.substr(eq + 1));
  }
}

// --- run requests ----------------------------------------------------------
//
// A request is one `key=value` line per user-settable config field, keyed
// and formatted by the config-key table (engine/config_keys.h).

/// Parses `key=value` lines into `cfg`, resetting it to defaults first.  The
/// config is *reused* across parses — strings keep their capacity — so the
/// steady-state daemon path performs zero allocations per request
/// (tests/serve/serve_alloc_test.cc).  Unknown keys and malformed values
/// throw ConfigError naming the field.
DASCHED_HOT void parse_run_request(std::string_view payload,
                                   ExperimentConfig& cfg);

/// Serializes a run request; the client-side inverse of parse_run_request.
void format_run_request(const ExperimentConfig& cfg, std::string& out);

// --- grid requests ---------------------------------------------------------

/// Parses a kGrid payload into `grid`.  Grid jobs reuse every kRun key for
/// the base config and add `apps=`, `policies=`, `schemes=`,
/// `sweep=name:v1,v2,...` and `derive_seeds=` list keys.  The server streams
/// one kResult per cell in deterministic ExperimentGrid::cells() order, so a
/// client holding the same grid can pair headers with locally re-derived
/// cells.  Throws ConfigError naming the field.
void parse_grid_request(std::string_view payload, ExperimentGrid& grid);

/// Serializes a grid request; the client-side inverse of parse_grid_request.
void format_grid_request(const ExperimentGrid& grid, std::string& out);

// --- trace uploads ---------------------------------------------------------
//
// A kTraceUpload payload is a header of `key=value` lines, the replay-key
// rows (engine/config_keys.h) and the upload-only `name=`, then a blank line
// and the raw trace body.

/// Parses the header into `opts` and `name` (default "upload") and returns
/// the trace body, a view into `payload`.  Unknown keys and malformed values
/// throw ConfigError naming the key.
[[nodiscard]] std::string_view parse_trace_upload(std::string_view payload,
                                                  ReplayOptions& opts,
                                                  std::string& name);

/// Serializes an upload; the client-side inverse of parse_trace_upload.
void format_trace_upload(const ReplayOptions& opts, std::string_view name,
                         std::string_view body, std::string& out);

// --- result codec ----------------------------------------------------------

/// Grid-cell labeling that precedes each serialized result.
struct CellHeader {
  std::uint32_t index = 0;
  bool has_sweep = false;
  std::string sweep_name;
  double sweep_value = 0.0;
};

/// Appends the bit-exact binary encoding of (header, result) to `out`.
/// `result.telemetry` is NOT encoded (see file comment).
DASCHED_HOT void serialize_result(const CellHeader& cell,
                                  const ExperimentResult& result,
                                  std::vector<std::uint8_t>& out);

/// Decodes a kResult payload; throws ProtocolError on truncation, a count
/// the payload cannot hold, a flag byte other than 0/1, a policy byte
/// outside PolicyKind, or trailing bytes.
void deserialize_result(std::span<const std::uint8_t> payload, CellHeader& cell,
                        ExperimentResult& result);

// --- errors ----------------------------------------------------------------

/// Structured error payload: `kind` is the exception family (config, trace,
/// protocol, runtime), `field` the offending config field or trace field
/// when known, `message` the full human diagnostic.
struct ErrorInfo {
  std::string kind;
  std::string field;
  std::string message;
};

void format_error(const ErrorInfo& info, std::string& out);
[[nodiscard]] ErrorInfo parse_error(std::string_view payload);

}  // namespace dasched::serve
