// Server side of the real TCP transport, built directly on the POSIX
// socket API.  Stream framing: u32 big-endian payload length + payload —
// the framing the reactor (reactor.hpp), the one client-side bearer,
// speaks.  This is the "Nexus-based TCP protocol" bearer when running
// against a real network stack (the benchmark suite instead uses the
// netsim-timed channel so results are deterministic — see DESIGN.md §2).
// Listeners default to loopback but can bind any local interface, which is
// what lets a World span OS processes and machines (docs/deployment.md).
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/transport/channel.hpp"

namespace ohpx::transport {

/// Resolves `host` to an IPv4 address: dotted-quad fast path, getaddrinfo
/// fallback for names ("localhost", machine names).  "" and "0.0.0.0" map
/// to INADDR_ANY (listeners bind every interface).  Throws
/// TransportError(transport_connect_failed) for unresolvable hosts.
in_addr resolve_ipv4(const std::string& host);

/// The accept path every listener shares: binds and listens on
/// `host`:`port` (port 0 = ephemeral), runs the accept thread and serves
/// each connection on its own worker thread through `serve`.  A worker
/// deregisters and closes its fd on every exit path (a TransportError
/// escaping `serve` drops the connection quietly, anything else is
/// logged); finished workers are reaped on the next accept, and stop()
/// shuts every live connection down so parked workers observe EOF.
class Acceptor {
 public:
  using ConnectionHandler = std::function<void(int fd)>;

  Acceptor(const std::string& host, std::uint16_t port,
           ConnectionHandler serve);
  ~Acceptor();

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  std::uint16_t port() const noexcept { return port_; }
  bool stopping() const noexcept {
    return stopping_.load(std::memory_order_relaxed);
  }

  /// Stops accepting, shuts live connections down and joins all threads.
  /// Idempotent.
  void stop();

 private:
  void accept_loop();
  void serve_guarded(int fd);
  void reap_finished_locked() OHPX_REQUIRES(workers_mutex_);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  ConnectionHandler serve_;
  std::atomic<bool> stopping_{false};
  sync::Mutex workers_mutex_{"transport.acceptor.workers"};
  std::vector<std::thread> workers_ OHPX_GUARDED_BY(workers_mutex_);
  std::set<int> open_connections_ OHPX_GUARDED_BY(workers_mutex_);
  std::vector<std::thread::id> finished_ OHPX_GUARDED_BY(workers_mutex_);
  std::thread accept_thread_;  // last: it uses every member above
};

/// Accepting side of the ORB's TCP bearer: binds `host`:`port` (port 0 =
/// ephemeral, host "" / "0.0.0.0" = all interfaces), serves each
/// connection on its own thread, dispatching frames into `handler`.
class TcpListener {
 public:
  TcpListener(std::uint16_t port, FrameHandler handler);
  TcpListener(const std::string& host, std::uint16_t port,
              FrameHandler handler);

  /// The actual bound port (useful with port 0).
  std::uint16_t port() const noexcept { return acceptor_.port(); }

  /// Stops accepting and joins all threads.  Idempotent.
  void stop() { acceptor_.stop(); }

 private:
  void serve_connection(int fd);

  FrameHandler handler_;
  Acceptor acceptor_;  // last: its threads run serve_connection
};

}  // namespace ohpx::transport
