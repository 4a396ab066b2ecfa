#ifndef EQIMPACT_SERVE_EVENT_LOOP_H_
#define EQIMPACT_SERVE_EVENT_LOOP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/service.h"

namespace eqimpact {
namespace serve {

/// Connection-lifecycle limits of the event loop. Every limit exists
/// because one loop serves every connection: a stalled client must not
/// hold memory forever, a hostile client must not grow a line buffer
/// without bound, and a flood of connections must be rejected with a
/// typed event, not absorbed until the process dies.
struct TransportLimits {
  /// Concurrent connections; one past the cap is answered with a single
  /// typed `too_many_connections` error event and closed. 0 = unlimited.
  size_t max_connections = 256;
  /// Per-request-line input cap: a line that exceeds it gets one typed
  /// `bad_request` error event and the remainder of the line is
  /// discarded (the connection survives and resyncs at the next '\n').
  size_t max_line_bytes = 1 << 20;
  /// Close a connection with no traffic (reads, writes, or queued
  /// events) for this long. 0 = no idle timeout.
  int64_t idle_timeout_ms = 0;
  /// Backpressure watermarks on the per-connection outgoing byte queue:
  /// when queued bytes reach the high watermark the loop stops draining
  /// job events into the connection (they wait in a per-connection
  /// pending queue) and stops reading its requests; once an EPOLLOUT
  /// drain brings the queue to or below the low watermark the held
  /// events flow again.
  size_t write_high_watermark = 256 * 1024;
  size_t write_low_watermark = 64 * 1024;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. A test
  /// knob: a tiny send buffer makes a slow reader hit the watermarks
  /// with small payloads.
  int socket_send_buffer = 0;
  /// Graceful-shutdown bound: after the service drains, connections
  /// still holding undelivered bytes get this long to be read out
  /// before they are force-closed (a client that stopped reading must
  /// not wedge shutdown).
  int64_t shutdown_flush_timeout_ms = 10000;
};

/// A point-in-time snapshot of the transport's lifecycle counters.
struct TransportStats {
  size_t connections_accepted = 0;
  size_t connections_rejected = 0;  ///< Closed by the max-connection cap.
  size_t oversized_lines = 0;       ///< Typed bad_request line rejections.
  size_t idle_closes = 0;           ///< Closed by the idle timeout.
  size_t backpressure_pauses = 0;   ///< High-watermark crossings.
  size_t backpressure_resumes = 0;  ///< Low-watermark drains.
  size_t peak_write_queue_bytes = 0;
  size_t open_connections = 0;
};

/// Lock-free counters behind TransportStats: bumped by the loop thread,
/// read from any thread.
class TransportCounters {
 public:
  void Accepted() { accepted_.fetch_add(1, std::memory_order_relaxed); }
  void Rejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  void OversizedLine() {
    oversized_.fetch_add(1, std::memory_order_relaxed);
  }
  void IdleClose() { idle_.fetch_add(1, std::memory_order_relaxed); }
  void Pause() { pauses_.fetch_add(1, std::memory_order_relaxed); }
  void Resume() { resumes_.fetch_add(1, std::memory_order_relaxed); }
  void RecordQueueBytes(size_t bytes) {
    size_t seen = peak_queue_.load(std::memory_order_relaxed);
    while (bytes > seen && !peak_queue_.compare_exchange_weak(
                               seen, bytes, std::memory_order_relaxed)) {
    }
  }
  void SetOpen(size_t open) {
    open_.store(open, std::memory_order_relaxed);
  }

  TransportStats Snapshot() const {
    TransportStats stats;
    stats.connections_accepted =
        accepted_.load(std::memory_order_relaxed);
    stats.connections_rejected =
        rejected_.load(std::memory_order_relaxed);
    stats.oversized_lines = oversized_.load(std::memory_order_relaxed);
    stats.idle_closes = idle_.load(std::memory_order_relaxed);
    stats.backpressure_pauses = pauses_.load(std::memory_order_relaxed);
    stats.backpressure_resumes =
        resumes_.load(std::memory_order_relaxed);
    stats.peak_write_queue_bytes =
        peak_queue_.load(std::memory_order_relaxed);
    stats.open_connections = open_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  std::atomic<size_t> accepted_{0};
  std::atomic<size_t> rejected_{0};
  std::atomic<size_t> oversized_{0};
  std::atomic<size_t> idle_{0};
  std::atomic<size_t> pauses_{0};
  std::atomic<size_t> resumes_{0};
  std::atomic<size_t> peak_queue_{0};
  std::atomic<size_t> open_{0};
};

/// Incremental '\n' framing with a hard per-line cap (directly
/// testable). Carriage returns before the newline are stripped and
/// empty lines are skipped. When a line exceeds the cap
/// the framer calls `on_overflow` once, drops what it buffered, and
/// discards input until the next '\n' — the connection resyncs instead
/// of growing without bound or dying.
class LineFramer {
 public:
  explicit LineFramer(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  void Feed(const char* data, size_t size,
            const std::function<void(std::string&&)>& on_line,
            const std::function<void()>& on_overflow);

  bool discarding() const { return discarding_; }

 private:
  const size_t max_line_bytes_;
  std::string buffer_;
  bool discarding_ = false;
};

/// The serving transport: one thread, one level-triggered epoll
/// instance owning accept, read and write readiness for every
/// connection.
///
/// Ownership and the wakeup path:
///
///  * The loop thread is the only thread that touches sockets, epoll
///    state, line buffers and write queues — a single-owner state
///    machine, no per-connection locks.
///  * Scheduler worker threads finish jobs and must push event lines at
///    connections they cannot touch; they call EnqueueEvent(), which
///    appends to a mutex-protected completion queue and pokes an
///    eventfd the loop waits on. The loop drains the queue on wakeup
///    and routes each line to its connection's queues (lines for a
///    connection that has since closed are dropped).
///  * Request lines parse on the loop thread and enter the service
///    synchronously (validation is microseconds; engine work runs on
///    the scheduler pool), so events reach each connection in the order
///    the service emits them.
///  * Accepted sockets set TCP_NODELAY: every event line is a complete
///    message, and Nagle's algorithm would hold a small line written
///    behind an unacknowledged one until the peer's delayed ACK (~40 ms
///    on Linux loopback).
///
/// Backpressure, line caps, idle timeouts and the connection cap are
/// per TransportLimits above. Idle deadlines live in a sorted deadline
/// list (std::multimap) whose head sets the epoll_wait timeout.
class EventLoop {
 public:
  /// Takes ownership of `listen_fd` (bound + listening). `service`
  /// must outlive the loop thread.
  EventLoop(int listen_fd, ExperimentService* service,
            const TransportLimits& limits);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and eventfd and registers the listener.
  /// Must be called (and succeed) before Run.
  bool Init();

  /// The loop body; call on a dedicated thread. Returns after
  /// BeginFlushShutdown's flush completes (or its deadline passes).
  void Run();

  /// Thread-safe: stop accepting (the listener closes on the loop
  /// thread); existing connections keep serving.
  void StopAccepting();

  /// Thread-safe: final shutdown phase — stop reading requests, flush
  /// every queued outgoing byte (bounded by shutdown_flush_timeout_ms),
  /// close all connections and exit Run. Call only after the service
  /// has drained, so every result event is already in the completion
  /// queue.
  void BeginFlushShutdown();

  /// Thread-safe event injection from worker threads (the EventSink the
  /// server wires into ExperimentService::Submit).
  void EnqueueEvent(uint64_t connection_id, const std::string& line);

  TransportStats stats() const { return counters_.Snapshot(); }

 private:
  struct Connection;

  enum Phase : int { kServing = 0, kAcceptClosed = 1, kFlushing = 2 };

  void Wake();
  void CloseListener();
  void HandleAccept();
  void HandleReadable(Connection* connection);
  void FlushWrites(Connection* connection);
  void DeliverEvent(Connection* connection, std::string&& line);
  /// Moves held events into the write queue while under the high
  /// watermark and maintains the paused flag + read interest.
  void PumpPending(Connection* connection);
  void MaybePause(Connection* connection);
  void UpdateInterest(Connection* connection);
  void TouchDeadline(Connection* connection);
  void CloseConnection(uint64_t id);
  void ProcessCompletions();
  void SweepIdle();
  int64_t NowMs() const;
  int NextTimeoutMs() const;

  const TransportLimits limits_;
  ExperimentService* const service_;
  int listen_fd_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::atomic<int> phase_{kServing};
  std::atomic<int64_t> flush_deadline_ms_{0};

  std::mutex completions_mutex_;
  std::vector<std::pair<uint64_t, std::string>> completions_;

  uint64_t next_connection_id_ = 2;  ///< 0 = listener, 1 = eventfd.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  /// Idle deadlines, sorted: (deadline ms, connection id). The head
  /// bounds epoll_wait's timeout.
  std::multimap<int64_t, uint64_t> deadlines_;

  TransportCounters counters_;
};

}  // namespace serve
}  // namespace eqimpact

#endif  // EQIMPACT_SERVE_EVENT_LOOP_H_
