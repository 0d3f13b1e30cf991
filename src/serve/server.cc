#include "serve/server.h"

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "engine/env_knobs.h"
#include "telemetry/export.h"
#include "workload/trace_replay.h"

namespace dasched::serve {

ServeOptions serve_options_from_env(ServeOptions base) {
  base.address =
      env_string("DASCHED_SERVE_SOCKET", base.address.c_str());
  base.max_tenants = env_int("DASCHED_SERVE_TENANTS", base.max_tenants);
  base.request_timeout_ms =
      env_int("DASCHED_SERVE_TIMEOUT_MS", base.request_timeout_ms);
  return base;
}

// --------------------------------------------------------------------------
// TenantSession
// --------------------------------------------------------------------------

bool TenantSession::send_error(Sink& sink, const char* kind, std::string field,
                               const char* message) {
  ErrorInfo info;
  info.kind = kind;
  info.field = std::move(field);
  info.message = message;
  format_error(info, text_);
  return sink.write_frame(FrameType::kError, text_);
}

bool TenantSession::handle(FrameType type, std::span<const std::uint8_t> payload,
                           Sink& sink) {
  try {
    switch (type) {
      case FrameType::kHello: {
        // The version is the only thing worth checking; other keys are
        // ignored so hellos stay forward-compatible.
        bool version_ok = false;
        for_each_key_value(as_text(payload), LineError::kProtocol,
                           [&](std::string_view key, std::string_view value) {
                             if (key != "version") return;
                             version_ok = value == std::to_string(kProtocolVersion);
                           });
        if (!version_ok) {
          send_error(sink, "protocol", "version",
                     "unsupported protocol version in hello");
          return false;
        }
        char reply[64];
        const int n = std::snprintf(reply, sizeof(reply),
                                    "version=%u\ntenant=%llu\n",
                                    kProtocolVersion,
                                    static_cast<unsigned long long>(tenant_id_));
        return sink.write_frame(FrameType::kHelloOk,
                                std::string_view(reply, n));
      }
      case FrameType::kPing:
        return sink.write_frame(FrameType::kPong, payload);
      case FrameType::kRun: {
        const bool ok = handle_run(as_text(payload), sink);
        if (ok) ++requests_served_;
        return ok;
      }
      case FrameType::kGrid: {
        const bool ok = handle_grid(as_text(payload), sink);
        if (ok) ++requests_served_;
        return ok;
      }
      case FrameType::kTraceUpload: {
        const bool ok = handle_trace_upload(as_text(payload), sink);
        if (ok) ++requests_served_;
        return ok;
      }
      case FrameType::kShutdown:
        shutdown_requested_ = true;
        sink.write_frame(FrameType::kDone, std::string_view("shutdown=1\n"));
        return false;
      default:
        send_error(sink, "protocol", "type", "unexpected frame type");
        return false;
    }
  } catch (const ConfigError& e) {
    return send_error(sink, "config", e.field(), e.what());
  } catch (const TraceParseError& e) {
    return send_error(sink, "trace", e.field(), e.what());
  } catch (const ProtocolError& e) {
    send_error(sink, "protocol", "", e.what());
    return false;  // framing is suspect; close
  } catch (const std::out_of_range& e) {
    return send_error(sink, "config", "app", e.what());
  } catch (const std::exception& e) {
    // The tenant survives every failure here.  A run that threw mid-flight
    // (an unwritable telemetry dir, a telemetry energy divergence, stuck
    // clients) poisoned the workspace, and the next prepare() rebuilds it.
    // An audit violation throws after the run completed and leaves the
    // workspace warm.
    return send_error(sink, "runtime", "", e.what());
  }
}

void TenantSession::resolve_app() {
  ExperimentConfig& cfg = cfg_;
  const App& app = app_by_name(cfg.app);  // std::out_of_range if unknown
  if (app.fixed_processes > 0) {
    if (cfg.scale.num_processes == 0) {
      cfg.scale.num_processes = app.fixed_processes;
    } else if (cfg.scale.num_processes != app.fixed_processes) {
      char msg[192];
      std::snprintf(msg, sizeof(msg),
                    "app '%s' replays a trace with %d processes; procs must "
                    "match or be 0 (= use the trace's own count)",
                    cfg.app.c_str(), app.fixed_processes);
      // dasched-lint: allow(hot-alloc): error path, request rejected
      throw ConfigError("procs", msg);
    }
  } else if (cfg.scale.num_processes == 0) {
    // dasched-lint: allow(hot-alloc): error path, request rejected
    throw ConfigError("procs", "procs=0 (use the app's own process count) is only meaningful for replayed traces");
  }
}

bool TenantSession::handle_run(std::string_view payload, Sink& sink) {
  parse_run_request(payload, cfg_);
  resolve_app();
  const ExperimentResult& r = ws_.run(cfg_);
  out_.clear();
  static const CellHeader kNoCell{};
  serialize_result(kNoCell, r, out_);
  if (!sink.write_frame(FrameType::kResult, out_)) return false;
  if (r.telemetry) {
    // dasched-lint: allow(hot-alloc): telemetry runs opt into allocation
    std::ostringstream os;
    write_summary_json(os, *r.telemetry);
    text_ = os.str();
    if (!sink.write_frame(FrameType::kTelemetry, text_)) return false;
  }
  return sink.write_frame(FrameType::kDone, std::string_view("cells=1\n"));
}

bool TenantSession::handle_grid(std::string_view payload, Sink& sink) {
  ExperimentGrid grid;
  parse_grid_request(payload, grid);
  const std::vector<GridCell> cells = grid.cells();
  CellHeader header;
  for (const GridCell& cell : cells) {
    const ExperimentResult& r = ws_.run(cell.config);
    header.index = static_cast<std::uint32_t>(cell.index);
    header.has_sweep = cell.has_sweep;
    header.sweep_name = cell.sweep_name;
    header.sweep_value = cell.sweep_value;
    out_.clear();
    serialize_result(header, r, out_);
    if (!sink.write_frame(FrameType::kResult, out_)) return false;
  }
  char done[32];
  const int n = std::snprintf(done, sizeof(done), "cells=%zu\n", cells.size());
  return sink.write_frame(FrameType::kDone, std::string_view(done, n));
}

bool TenantSession::handle_trace_upload(std::string_view payload, Sink& sink) {
  ReplayOptions opts;
  std::string name;
  const std::string_view body = parse_trace_upload(payload, opts, name);

  // Parse (throws TraceParseError before any global mutation), then
  // register under the content fingerprint.
  ReplayTrace trace = parse_replay_trace(body, name, opts);
  const std::size_t files = trace.files.size();
  const std::size_t records = trace.records.size();
  const App& app = register_replay_trace(std::move(trace), opts);
  char reply[160];
  const int n = std::snprintf(
      reply, sizeof(reply), "app=%s\nprocs=%d\nfiles=%zu\nrecords=%zu\n",
      app.name.c_str(), app.fixed_processes, files, records);
  return sink.write_frame(FrameType::kTraceOk, std::string_view(reply, n));
}

// --------------------------------------------------------------------------
// ServeServer
// --------------------------------------------------------------------------

ServeServer::~ServeServer() {
  request_shutdown();
  wait();
}

void ServeServer::start() {
  listener_ = Listener::open(opts_.address);
  address_ = listener_.address();
  acceptor_ = std::thread([this] { accept_loop(); });
}

void ServeServer::request_shutdown() {
  if (stop_.exchange(true)) return;
  // Wakes the accept loop, which closes the listener itself: a close here
  // would write the fd the accept thread is reading.
  listener_.shutdown();
  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (Conn& c : conns_) c.sock.shutdown_both();
}

void ServeServer::wait() {
  if (acceptor_.joinable()) acceptor_.join();
  reap(/*all=*/true);
}

void ServeServer::reap(bool all) {
  std::list<Conn> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all || it->done.load(std::memory_order_acquire)) {
        finished.splice(finished.end(), conns_, it++);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock: a connection thread may be inside
  // serve_connection's epilogue, which never takes conns_mutex_.
  for (Conn& c : finished) {
    if (c.thread.joinable()) c.thread.join();
  }
}

void ServeServer::accept_loop() {
  std::uint64_t next_tenant = 1;
  while (!stop_.load(std::memory_order_relaxed)) {
    Socket sock = listener_.accept(/*timeout_ms=*/200);
    if (!sock.valid()) continue;
    reap(/*all=*/false);
    std::size_t active = 0;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      active = conns_.size();
    }
    if (static_cast<int>(active) >= opts_.max_tenants) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      ErrorInfo info;
      info.kind = "busy";
      info.field = "max_tenants";
      info.message = "tenant limit reached (" +
                     std::to_string(opts_.max_tenants) + "); retry later";
      std::string text;
      format_error(info, text);
      std::vector<std::uint8_t> scratch;
      (void)write_frame(
          sock, FrameType::kError,
          std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(text.data()), text.size()),
          scratch);
      continue;  // sock closes on scope exit
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t tenant_id = next_tenant++;
    Conn* conn = nullptr;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.emplace_back();
      conn = &conns_.back();
      conn->sock = std::move(sock);
    }
    // If a shutdown raced in between the accept and the registration, make
    // sure this connection is woken like the rest.
    if (stop_.load(std::memory_order_relaxed)) conn->sock.shutdown_both();
    conn->thread = std::thread(
        [this, conn, tenant_id] { serve_connection(*conn, tenant_id); });
    if (opts_.verbose) {
      std::fprintf(stderr, "[dasched_serve] tenant %llu connected\n",
                   static_cast<unsigned long long>(tenant_id));
    }
  }
  listener_.close();
}

void ServeServer::serve_connection(Conn& conn, std::uint64_t tenant_id) {
  struct SocketSink final : TenantSession::Sink {
    explicit SocketSink(Socket& s) : sock(s) {}
    bool write_frame(FrameType t,
                     std::span<const std::uint8_t> payload) override {
      return serve::write_frame(sock, t, payload, scratch);
    }
    using TenantSession::Sink::write_frame;
    Socket& sock;
    std::vector<std::uint8_t> scratch;
  };

  TenantSession session(tenant_id);
  SocketSink sink(conn.sock);
  std::vector<std::uint8_t> payload;
  while (!stop_.load(std::memory_order_relaxed)) {
    FrameType type{};
    Socket::IoStatus status = Socket::IoStatus::kError;
    try {
      status = read_frame(conn.sock, opts_.request_timeout_ms <= 0
                                         ? -1
                                         : opts_.request_timeout_ms,
                          type, payload);
    } catch (const ProtocolError& e) {
      ErrorInfo info{"protocol", "", e.what()};
      std::string text;
      format_error(info, text);
      sink.write_frame(FrameType::kError, std::string_view(text));
      break;
    }
    if (status != Socket::IoStatus::kOk) {
      if (opts_.verbose && status == Socket::IoStatus::kTimeout) {
        std::fprintf(stderr, "[dasched_serve] tenant %llu timed out\n",
                     static_cast<unsigned long long>(tenant_id));
      }
      break;
    }
    const bool keep = session.handle(type, payload, sink);
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    if (!keep) break;
  }
  conn.sock.shutdown_both();
  if (opts_.verbose) {
    std::fprintf(stderr,
                 "[dasched_serve] tenant %llu disconnected after %llu "
                 "request(s)\n",
                 static_cast<unsigned long long>(tenant_id),
                 static_cast<unsigned long long>(session.requests_served()));
  }
  if (session.shutdown_requested()) request_shutdown();
  conn.done.store(true, std::memory_order_release);
}

}  // namespace dasched::serve
