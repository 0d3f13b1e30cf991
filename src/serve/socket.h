// Minimal blocking socket layer for the serve daemon.
//
// Unix-domain and loopback-TCP listeners and connections with poll(2)-based
// timeouts — nothing more.  Addresses are strings: `unix:/path/to.sock` or
// `tcp:PORT` (always bound to 127.0.0.1; the daemon is a local service, and
// exposing the simulator to a network is a deployment decision this layer
// refuses to make).  `tcp:0` binds an ephemeral port; `Listener::address()`
// reports the resolved one.
//
// Frame I/O (read_frame/write_frame) lives here so both the server and the
// client loop over the same code; the payload buffer is caller-owned and
// reused, keeping the steady-state receive path allocation-free once the
// buffer reaches its high-water mark.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace dasched::serve {

/// RAII file descriptor with all-or-nothing send/recv helpers.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close();
  /// shutdown(2) both directions: wakes a peer (or own thread) blocked in
  /// recv without racing on the fd lifetime the way close() would.
  void shutdown_both();

  enum class IoStatus { kOk, kEof, kTimeout, kError };

  /// Sends the whole buffer (retrying partial writes); kOk or kError.
  IoStatus send_all(const void* data, std::size_t n);
  /// Receives exactly `n` bytes.  kEof only when the peer closed cleanly
  /// before the first byte; a mid-message close is kError.
  /// `timeout_ms` < 0 blocks forever.
  IoStatus recv_all(void* data, std::size_t n, int timeout_ms);

 private:
  int fd_ = -1;
};

/// Bound + listening socket for `unix:PATH` / `tcp:PORT` addresses.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;

  /// Binds and listens; throws ConfigError (field `address`) for a
  /// malformed address and std::runtime_error with errno context otherwise.
  static Listener open(const std::string& address);

  /// Accepts one connection; invalid Socket on timeout, after shutdown()
  /// or after close().
  [[nodiscard]] Socket accept(int timeout_ms);

  /// Shuts the listening socket down without closing its fd: a blocked or
  /// later accept() returns an invalid Socket at once.  Safe to call from
  /// any thread while another one is inside accept() or close().
  void shutdown();

  /// Closes the listening fd and, for unix sockets, unlinks the path.  Not
  /// concurrently with accept(): call it on the accepting thread, or after
  /// that thread has stopped.
  void close();

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Canonical address with any ephemeral TCP port resolved.
  [[nodiscard]] const std::string& address() const { return address_; }

 private:
  int fd_ = -1;
  std::string address_;
  std::string unlink_path_;
  /// Orders shutdown() against close(), so a shutdown from another thread
  /// never reads the fd while it is being closed (or after its number was
  /// reused).  accept() needs no lock: it runs on the closing thread.
  std::mutex close_mutex_;
};

/// Connects to a listener address; throws ConfigError (field `address`)
/// for a malformed address and std::runtime_error on any other failure.
[[nodiscard]] Socket connect_to(const std::string& address);

/// Reads one frame into (type, payload); payload is cleared and reused.
/// kEof = clean close at a frame boundary.  Throws ProtocolError on a
/// malformed length.
Socket::IoStatus read_frame(Socket& s, int timeout_ms, FrameType& type,
                            std::vector<std::uint8_t>& payload);

/// Writes one frame via `scratch` (reused; cleared on entry).
[[nodiscard]] bool write_frame(Socket& s, FrameType type,
                               std::span<const std::uint8_t> payload,
                               std::vector<std::uint8_t>& scratch);

}  // namespace dasched::serve
