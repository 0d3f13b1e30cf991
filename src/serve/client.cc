#include "serve/client.h"

#include <cerrno>
#include <cstdio>
#include <ctime>

#include "util/parse.h"

namespace dasched::serve {

namespace {

std::string describe(const ErrorInfo& info) {
  std::string out = "server error [" + info.kind + "]";
  if (!info.field.empty()) out += " field '" + info.field + "'";
  out += ": " + info.message;
  return out;
}

void sleep_ms(int ms) {
  timespec ts{ms / 1000, static_cast<long>(ms % 1000) * 1'000'000L};
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

}  // namespace

ServeError::ServeError(ErrorInfo info)
    : std::runtime_error(describe(info)), info_(std::move(info)) {}

ServeClient::ServeClient(Socket sock) : sock_(std::move(sock)) {}

ServeClient ServeClient::connect(const std::string& address, int retries,
                                 int retry_delay_ms) {
  for (int attempt = 0;; ++attempt) {
    try {
      ServeClient client{connect_to(address)};
      client.hello();
      return client;
    } catch (const std::runtime_error&) {
      if (attempt >= retries) throw;
      sleep_ms(retry_delay_ms);
    }
  }
}

void ServeClient::send(FrameType t, std::string_view payload) {
  scratch_.clear();
  append_frame(scratch_, t, payload);
  if (sock_.send_all(scratch_.data(), scratch_.size()) !=
      Socket::IoStatus::kOk) {
    throw std::runtime_error("serve client: connection lost while sending");
  }
}

FrameType ServeClient::next_frame() {
  FrameType type{};
  const Socket::IoStatus status =
      read_frame(sock_, /*timeout_ms=*/-1, type, payload_);
  if (status != Socket::IoStatus::kOk) {
    throw std::runtime_error(status == Socket::IoStatus::kEof
                                 ? "serve client: server closed the connection"
                                 : "serve client: connection lost");
  }
  if (type == FrameType::kError) {
    throw ServeError(parse_error(as_text(payload_)));
  }
  return type;
}

void ServeClient::hello() {
  char buf[32];
  const int n =
      std::snprintf(buf, sizeof(buf), "version=%u\n", kProtocolVersion);
  send(FrameType::kHello, std::string_view(buf, n));
  const FrameType t = next_frame();
  if (t != FrameType::kHelloOk) {
    throw std::runtime_error(std::string("serve client: expected hello_ok, "
                                         "got ") +
                             to_string(t));
  }
  for_each_key_value(as_text(payload_), LineError::kProtocol,
                     [&](std::string_view key, std::string_view value) {
                       if (key == "tenant") {
                         if (const auto id = parse_i64(value)) {
                           tenant_id_ = static_cast<std::uint64_t>(*id);
                         }
                       }
                     });
}

void ServeClient::ping() {
  send(FrameType::kPing, std::string_view("ping\n"));
  const FrameType t = next_frame();
  if (t != FrameType::kPong) {
    throw std::runtime_error("serve client: expected pong");
  }
}

ServeClient::UploadReply ServeClient::upload_trace(std::string_view content,
                                                   const std::string& name,
                                                   const ReplayOptions& opts) {
  format_trace_upload(opts, name, content, text_);
  send(FrameType::kTraceUpload, text_);
  const FrameType t = next_frame();
  if (t != FrameType::kTraceOk) {
    throw std::runtime_error("serve client: expected trace_ok");
  }
  UploadReply reply;
  for_each_key_value(
      as_text(payload_), LineError::kProtocol,
      [&](std::string_view key, std::string_view value) {
        if (key == "app") {
          reply.app.assign(value.data(), value.size());
        } else if (key == "procs") {
          if (const auto v = parse_i64(value)) reply.procs = static_cast<int>(*v);
        } else if (key == "files") {
          if (const auto v = parse_i64(value)) reply.files = *v;
        } else if (key == "records") {
          if (const auto v = parse_i64(value)) reply.records = *v;
        }
      });
  if (reply.app.empty()) {
    throw ProtocolError("trace_ok reply is missing the app name");
  }
  return reply;
}

void ServeClient::run(const ExperimentConfig& cfg, bool audit, Reply& out) {
  if (!audit || cfg.audit) return run(cfg, out);
  ExperimentConfig audited = cfg;
  audited.audit = true;
  run(audited, out);
}

void ServeClient::run(const ExperimentConfig& cfg, Reply& out) {
  format_run_request(cfg, text_);
  send(FrameType::kRun, text_);
  bool have_result = false;
  out.telemetry_json.clear();
  while (true) {
    const FrameType t = next_frame();
    if (t == FrameType::kResult) {
      deserialize_result(payload_, out.cell, out.result);
      have_result = true;
    } else if (t == FrameType::kTelemetry) {
      out.telemetry_json.assign(as_text(payload_));
    } else if (t == FrameType::kDone) {
      break;
    } else {
      throw std::runtime_error(
          std::string("serve client: unexpected frame in run reply: ") +
          to_string(t));
    }
  }
  if (!have_result) {
    throw ProtocolError("run reply finished without a result frame");
  }
}

ServeClient::Reply ServeClient::run(const ExperimentConfig& cfg) {
  Reply out;
  run(cfg, out);
  return out;
}

std::size_t ServeClient::run_grid(
    const ExperimentGrid& grid,
    const std::function<void(const Reply&)>& on_cell) {
  format_grid_request(grid, text_);
  send(FrameType::kGrid, text_);
  Reply reply;
  std::size_t cells = 0;
  std::size_t announced = 0;
  while (true) {
    const FrameType t = next_frame();
    if (t == FrameType::kResult) {
      reply.telemetry_json.clear();
      deserialize_result(payload_, reply.cell, reply.result);
      ++cells;
      if (on_cell) on_cell(reply);
    } else if (t == FrameType::kDone) {
      for_each_key_value(as_text(payload_), LineError::kProtocol,
                         [&](std::string_view key, std::string_view value) {
                           if (key == "cells") {
                             if (const auto v = parse_i64(value)) {
                               announced = static_cast<std::size_t>(*v);
                             }
                           }
                         });
      break;
    } else {
      throw std::runtime_error(
          std::string("serve client: unexpected frame in grid reply: ") +
          to_string(t));
    }
  }
  if (announced != cells) {
    throw ProtocolError("grid reply cell count mismatch");
  }
  return cells;
}

void ServeClient::shutdown_server() {
  send(FrameType::kShutdown, std::string_view("shutdown\n"));
  // Best-effort: the daemon replies kDone before draining, but a racing
  // close is not an error worth surfacing to a caller that asked for exit.
  try {
    (void)next_frame();
  } catch (const std::runtime_error&) {
  }
}

}  // namespace dasched::serve
