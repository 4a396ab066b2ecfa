#ifndef EQIMPACT_SERVE_SERVER_H_
#define EQIMPACT_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "serve/event_loop.h"
#include "serve/service.h"

namespace eqimpact {
namespace serve {

/// Server configuration.
struct ServerOptions {
  ServiceOptions service;
  /// TCP port to listen on (loopback only). 0 = ephemeral; read the
  /// bound port back through port().
  uint16_t port = 0;
  /// Connection-lifecycle limits (caps, idle timeout, backpressure
  /// watermarks).
  TransportLimits limits;
};

/// Loopback TCP front end of the experiment service: line-delimited
/// JSON over 127.0.0.1 (see serve/protocol.h), dependency-free POSIX
/// sockets. The server binds the listener and runs one epoll event loop
/// (serve/event_loop.h) on its own thread; the loop owns every socket.
/// Scheduling, caching and dedup live in ExperimentService.
///
/// Lifecycle: construct, Start() (binds and begins accepting), serve,
/// Shutdown() — which stops accepting, lets the service drain every
/// in-flight job (streams keep flowing while draining), then flushes and
/// closes the remaining connections. Shutdown is what the CLI's SIGTERM
/// handler calls: a kill during a burst still flushes every accepted
/// job's result before exit.
class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the event loop. Returns false (with a
  /// message on stderr) when the port cannot be bound.
  bool Start();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// Graceful shutdown: stop accepting, drain in-flight jobs, flush and
  /// close connections, join the loop thread. Idempotent; also run by
  /// the destructor.
  void Shutdown();

  ExperimentService& service() { return *service_; }

  /// Lifecycle counters of the event loop (accepts, rejections,
  /// backpressure pauses, ...). All zero before Start.
  TransportStats transport_stats() const;

 private:
  const ServerOptions options_;
  std::unique_ptr<ExperimentService> service_;
  uint16_t port_ = 0;
  std::mutex shutdown_mutex_;
  bool shutdown_complete_ = false;
  std::unique_ptr<EventLoop> loop_;
  std::thread loop_thread_;
};

}  // namespace serve
}  // namespace eqimpact

#endif  // EQIMPACT_SERVE_SERVER_H_
