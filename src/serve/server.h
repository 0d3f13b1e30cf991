// Scheduling-as-a-service daemon (DESIGN.md §17).
//
// Two layers, deliberately separated:
//
//  * `TenantSession` — the transport-independent request handler.  One
//    session owns one warm `ExperimentWorkspace` plus reused request/result
//    buffers, so the second and later identical requests of a tenant perform
//    zero steady-state allocations (tests/serve/serve_alloc_test.cc proves
//    it with an operator-new interposer, the same way the workspace itself
//    is proven).  A request that throws mid-run answers kError and leaves
//    the session usable: the workspace's poison marker makes the next
//    prepare() rebuild from scratch instead of trusting half-mutated state.
//
//  * `ServeServer` — the socket front end: thread-per-connection accept
//    loop over a unix-domain or loopback-TCP listener, a tenant cap, and
//    graceful shutdown (stop flag + listener close + shutdown(2) on every
//    live connection, then join).  Each connection IS a tenant: its session
//    (and workspace) lives exactly as long as the socket.
//
// Per-request timeouts are poll(2) read timeouts: they bound how long the
// server waits for a client to deliver the next frame (and for mid-frame
// stalls), not how long a simulation runs — simulations are deterministic
// and finite, so wall-clock preemption would only break bit-identity.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "driver/workspace.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "util/annotations.h"

namespace dasched::serve {

struct ServeOptions {
  /// `unix:PATH` or `tcp:PORT` (loopback only; `tcp:0` = ephemeral).
  std::string address = "unix:dasched.sock";
  /// Concurrent-connection cap; excess connections are answered with a
  /// structured kError ("busy") and closed.
  int max_tenants = 8;
  /// Read timeout per frame in milliseconds; <= 0 waits forever.  A tenant
  /// that times out mid-request is disconnected (its workspace dies with
  /// the connection).
  int request_timeout_ms = 30'000;
  /// Log one line per connection/request to stderr.
  bool verbose = false;
};

/// Applies the DASCHED_SERVE_SOCKET / DASCHED_SERVE_TENANTS /
/// DASCHED_SERVE_TIMEOUT_MS knobs on top of `base` (strict parsing via
/// engine/env_knobs: a set-but-malformed value is fatal with a clear
/// message).  Knob table in EXPERIMENTS.md.
[[nodiscard]] ServeOptions serve_options_from_env(ServeOptions base = {});

/// One tenant's request handler; transport-independent (see file comment).
class TenantSession {
 public:
  /// Where reply frames go.  The socket server writes to the connection;
  /// tests substitute an in-memory sink.
  class Sink {
   public:
    virtual ~Sink() = default;
    /// False = transport gone; the session loop should stop.
    virtual bool write_frame(FrameType t,
                             std::span<const std::uint8_t> payload) = 0;
    bool write_frame(FrameType t, std::string_view payload) {
      return write_frame(
          t, std::span<const std::uint8_t>(
                 reinterpret_cast<const std::uint8_t*>(payload.data()),
                 payload.size()));
    }
  };

  explicit TenantSession(std::uint64_t tenant_id) : tenant_id_(tenant_id) {}

  TenantSession(const TenantSession&) = delete;
  TenantSession& operator=(const TenantSession&) = delete;

  /// Handles one request frame, writing replies to `sink`.  Returns false
  /// when the connection should close (kShutdown, or an unrecoverable
  /// protocol violation).  Request-level failures (bad config, bad trace,
  /// a run that threw) answer kError and return true — the tenant and its
  /// warm workspace survive.
  bool handle(FrameType type, std::span<const std::uint8_t> payload,
              Sink& sink);

  /// True once this tenant asked the whole daemon to stop.
  [[nodiscard]] bool shutdown_requested() const { return shutdown_requested_; }
  [[nodiscard]] std::uint64_t tenant_id() const { return tenant_id_; }
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_;
  }
  /// The warm per-tenant workspace (rebuild counters for tests/benches).
  [[nodiscard]] const ExperimentWorkspace& workspace() const { return ws_; }

 private:
  /// The steady-state path: parse → resolve app → run → serialize → reply.
  /// Allocation-free on a warm workspace (hot-alloc lint + interposer test);
  /// the telemetry/error branches opt into allocation explicitly.
  DASCHED_HOT bool handle_run(std::string_view payload, Sink& sink);
  bool handle_grid(std::string_view payload, Sink& sink);
  bool handle_trace_upload(std::string_view payload, Sink& sink);
  /// Resolves cfg_.app and reconciles procs with a replay app's
  /// fixed process count (procs=0 = "use the app's own").
  void resolve_app();
  bool send_error(Sink& sink, const char* kind, std::string field,
                  const char* message);

  std::uint64_t tenant_id_ = 0;
  ExperimentWorkspace ws_;
  ExperimentConfig cfg_;            // reused: strings keep capacity
  std::vector<std::uint8_t> out_;   // reused result-frame scratch
  std::string text_;                // reused control-frame scratch
  bool shutdown_requested_ = false;
  std::uint64_t requests_served_ = 0;
};

/// The socket front end; see file comment.
class ServeServer {
 public:
  explicit ServeServer(ServeOptions opts) : opts_(std::move(opts)) {}
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds + listens + starts the accept thread; throws on bind failure.
  void start();
  /// Canonical listener address (ephemeral TCP port resolved); valid after
  /// start().
  [[nodiscard]] const std::string& address() const { return address_; }

  /// Initiates graceful shutdown: stops accepting, wakes every connection
  /// thread via shutdown(2).  Safe to call from any thread (including a
  /// connection thread relaying a client kShutdown) and idempotent.
  void request_shutdown();
  /// Joins the accept loop and every connection thread; returns once the
  /// daemon is fully drained.  Call after request_shutdown(), or let a
  /// client kShutdown trigger it.
  void wait();

  // Counters (atomic: read from tests while threads run).
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t connections_rejected() const {
    return connections_rejected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Conn& conn, std::uint64_t tenant_id);
  /// Joins and erases finished connections; with `all`, joins live ones too
  /// (only during shutdown, after their sockets were shut down).
  void reap(bool all);

  ServeOptions opts_;
  Listener listener_;
  std::string address_;
  std::thread acceptor_;
  std::atomic<bool> stop_{false};

  std::mutex conns_mutex_;            // guards conns_ layout, not the Conns
  std::list<Conn> conns_;             // std::list: stable addresses for threads

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> requests_served_{0};
};

}  // namespace dasched::serve
