// Client side of the serve protocol (DESIGN.md §17).
//
// A thin synchronous request/reply wrapper: connect + hello once, then any
// number of ping / trace-upload / run / grid requests over the warm
// connection (the server keeps one warm workspace per connection, so request
// latency after the first run is dominated by the simulation itself).
// Results arrive through the bit-exact binary codec — a result obtained
// through the daemon is bit-identical to the same config run in-process,
// which tools/dasched_client.cc exposes as `--hexfloat` for CI diffing.
//
// Server-side failures surface as `ServeError` carrying the structured
// ErrorInfo (kind / field / message); transport failures are plain
// std::runtime_error.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.h"
#include "serve/socket.h"
#include "workload/trace_replay.h"

namespace dasched::serve {

/// A structured kError reply, rethrown client-side.
class ServeError : public std::runtime_error {
 public:
  explicit ServeError(ErrorInfo info);
  [[nodiscard]] const ErrorInfo& info() const noexcept { return info_; }

 private:
  ErrorInfo info_;
};

class ServeClient {
 public:
  /// One streamed result (a run reply, or one grid cell).
  struct Reply {
    CellHeader cell;
    ExperimentResult result;
    /// Out-of-band telemetry summary (kTelemetry); empty when telemetry
    /// was off for the run.
    std::string telemetry_json;
  };

  /// kTraceOk contents: the content-addressed app the upload registered.
  struct UploadReply {
    std::string app;
    int procs = 0;
    long long files = 0;
    long long records = 0;
  };

  /// Connects and performs the hello exchange.  `retries` > 0 retries a
  /// refused/missing listener every `retry_delay_ms` (daemon startup races
  /// in CI); other failures throw immediately.
  [[nodiscard]] static ServeClient connect(const std::string& address,
                                           int retries = 0,
                                           int retry_delay_ms = 200);

  ServeClient(ServeClient&&) = default;
  ServeClient& operator=(ServeClient&&) = default;

  /// Round-trips a kPing.
  void ping();

  /// Uploads a trace body for server-side parsing + registration.
  UploadReply upload_trace(std::string_view content, const std::string& name,
                           const ReplayOptions& opts);

  /// Runs one experiment on the server, filling `out` (reused by callers
  /// that care about allocations); audited when `cfg.audit` is set.
  void run(const ExperimentConfig& cfg, Reply& out);
  [[nodiscard]] Reply run(const ExperimentConfig& cfg);
  /// As above, also audited when `audit` is set; only the perfbench
  /// harness (perfbench/perfbench.cc) passes the flag.
  void run(const ExperimentConfig& cfg, bool audit, Reply& out);

  /// Streams a grid job; `on_cell` sees a reused Reply per cell, in
  /// deterministic cell order.  Returns the server's final cell count.
  std::size_t run_grid(const ExperimentGrid& grid,
                       const std::function<void(const Reply&)>& on_cell);

  /// Asks the daemon to shut down gracefully (kShutdown, await kDone).
  void shutdown_server();

  [[nodiscard]] std::uint64_t tenant_id() const { return tenant_id_; }

 private:
  explicit ServeClient(Socket sock);
  void hello();
  /// Reads the next frame into (type, payload_); throws ServeError on a
  /// kError frame, std::runtime_error on transport loss.
  FrameType next_frame();
  void send(FrameType t, std::string_view payload);

  Socket sock_;
  std::vector<std::uint8_t> payload_;  // reused receive buffer
  std::vector<std::uint8_t> scratch_;  // reused send buffer
  std::string text_;                   // reused request text
  std::uint64_t tenant_id_ = 0;
};

}  // namespace dasched::serve
