#include "serve/event_loop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>

#include "serve/protocol.h"

namespace eqimpact {
namespace serve {

void LineFramer::Feed(const char* data, size_t size,
                      const std::function<void(std::string&&)>& on_line,
                      const std::function<void()>& on_overflow) {
  size_t offset = 0;
  while (offset < size) {
    const char* newline = static_cast<const char*>(
        std::memchr(data + offset, '\n', size - offset));
    const size_t chunk_end =
        newline != nullptr ? static_cast<size_t>(newline - data) : size;
    if (discarding_) {
      // Drop the tail of an oversized line; resync at the newline.
      if (newline != nullptr) discarding_ = false;
      offset = chunk_end + 1;
      continue;
    }
    const size_t chunk = chunk_end - offset;
    if (buffer_.size() + chunk > max_line_bytes_) {
      buffer_.clear();
      buffer_.shrink_to_fit();
      discarding_ = newline == nullptr;
      on_overflow();
      offset = chunk_end + 1;
      continue;
    }
    buffer_.append(data + offset, chunk);
    offset = chunk_end + 1;
    if (newline == nullptr) break;  // Partial line; wait for more bytes.
    if (!buffer_.empty() && buffer_.back() == '\r') buffer_.pop_back();
    if (!buffer_.empty()) {
      std::string line;
      line.swap(buffer_);
      on_line(std::move(line));
    }
  }
}

/// Per-connection state, owned exclusively by the loop thread.
struct EventLoop::Connection {
  uint64_t id = 0;
  int fd = -1;
  LineFramer framer;
  /// Event lines held back by backpressure (the "stop draining job
  /// events" side of the watermark contract).
  std::deque<std::string> pending;
  /// Bytes committed to the socket: a queue of event lines plus an
  /// offset into the front one (partial send under a full socket
  /// buffer).
  std::deque<std::string> write_queue;
  size_t write_front_offset = 0;
  size_t write_bytes = 0;
  bool paused = false;
  bool want_read = true;
  bool want_write = false;
  /// The interest mask currently installed in epoll, to skip redundant
  /// EPOLL_CTL_MOD calls.
  uint32_t installed_events = 0;
  std::multimap<int64_t, uint64_t>::iterator deadline;
  bool has_deadline = false;

  explicit Connection(size_t max_line_bytes) : framer(max_line_bytes) {}
  /// Owns the socket: closing here covers every loop exit path,
  /// including a hard epoll_wait failure that abandons connections_.
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

EventLoop::EventLoop(int listen_fd, ExperimentService* service,
                     const TransportLimits& limits)
    : limits_(limits), service_(service), listen_fd_(listen_fd) {}

EventLoop::~EventLoop() {
  // Client sockets close in ~Connection as connections_ is destroyed;
  // here only the loop's own descriptors remain.
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool EventLoop::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    std::perror("serve: epoll_create1");
    return false;
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    std::perror("serve: eventfd");
    return false;
  }
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  if (flags < 0 ||
      ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    std::perror("serve: fcntl(listener, O_NONBLOCK)");
    return false;
  }
  struct epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = EPOLLIN;
  event.data.u64 = 0;  // Listener.
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event) < 0) {
    std::perror("serve: epoll_ctl(listener)");
    return false;
  }
  event.events = EPOLLIN;
  event.data.u64 = 1;  // Wakeup eventfd.
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) < 0) {
    std::perror("serve: epoll_ctl(eventfd)");
    return false;
  }
  return true;
}

int64_t EventLoop::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void EventLoop::Wake() {
  const uint64_t one = 1;
  // A full eventfd counter still wakes the loop; the value is unused.
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::EnqueueEvent(uint64_t connection_id,
                             const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.emplace_back(connection_id, line);
  }
  Wake();
}

void EventLoop::StopAccepting() {
  int expected = kServing;
  phase_.compare_exchange_strong(expected, kAcceptClosed);
  Wake();
}

void EventLoop::BeginFlushShutdown() {
  flush_deadline_ms_.store(NowMs() + limits_.shutdown_flush_timeout_ms);
  phase_.store(kFlushing);
  Wake();
}

void EventLoop::CloseListener() {
  if (listen_fd_ < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void EventLoop::TouchDeadline(Connection* connection) {
  if (limits_.idle_timeout_ms <= 0) return;
  if (connection->has_deadline) deadlines_.erase(connection->deadline);
  connection->deadline = deadlines_.emplace(
      NowMs() + limits_.idle_timeout_ms, connection->id);
  connection->has_deadline = true;
}

void EventLoop::UpdateInterest(Connection* connection) {
  const uint32_t wanted = (connection->want_read ? EPOLLIN : 0u) |
                          (connection->want_write ? EPOLLOUT : 0u);
  if (wanted == connection->installed_events) return;
  struct epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = wanted;
  event.data.u64 = connection->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection->fd, &event);
  connection->installed_events = wanted;
}

void EventLoop::HandleAccept() {
  for (;;) {
    const int client =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or the listener failed hard.
    }
    if (phase_.load() != kServing) {
      ::close(client);
      continue;
    }
    if (limits_.max_connections > 0 &&
        connections_.size() >= limits_.max_connections) {
      // Typed connection-level rejection: one error event, best-effort
      // (the line fits any socket buffer), then close.
      const std::string line = ErrorEventLine(
          "", ErrorCode::kTooManyConnections,
          "connection limit reached (max " +
              std::to_string(limits_.max_connections) + ")");
      // Count before close: a client that sees our EOF must already
      // find the rejection in the stats.
      counters_.Rejected();
      (void)!::send(client, line.data(), line.size(),
                    MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(client);
      continue;
    }
    // Event lines are complete messages (see the class comment).
    const int no_delay = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &no_delay, sizeof(no_delay));
    if (limits_.socket_send_buffer > 0) {
      ::setsockopt(client, SOL_SOCKET, SO_SNDBUF,
                   &limits_.socket_send_buffer,
                   sizeof(limits_.socket_send_buffer));
    }
    auto connection =
        std::make_unique<Connection>(limits_.max_line_bytes);
    connection->id = next_connection_id_++;
    connection->fd = client;
    connection->installed_events = EPOLLIN;
    struct epoll_event event;
    std::memset(&event, 0, sizeof(event));
    event.events = EPOLLIN;
    event.data.u64 = connection->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client, &event) < 0) {
      continue;  // ~Connection closes the socket.
    }
    TouchDeadline(connection.get());
    counters_.Accepted();
    connections_.emplace(connection->id, std::move(connection));
    counters_.SetOpen(connections_.size());
  }
}

void EventLoop::CloseConnection(uint64_t id) {
  auto found = connections_.find(id);
  if (found == connections_.end()) return;
  Connection* connection = found->second.get();
  if (connection->has_deadline) deadlines_.erase(connection->deadline);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, connection->fd, nullptr);
  connections_.erase(found);  // ~Connection closes the socket.
  counters_.SetOpen(connections_.size());
}

void EventLoop::MaybePause(Connection* connection) {
  counters_.RecordQueueBytes(connection->write_bytes);
  if (!connection->paused &&
      connection->write_bytes >= limits_.write_high_watermark) {
    connection->paused = true;
    counters_.Pause();
    // Backpressure propagates to the reader side too: a connection that
    // is not draining its results stops getting new requests parsed,
    // so its submissions cannot pile up unboundedly either.
    connection->want_read = false;
    UpdateInterest(connection);
  }
}

void EventLoop::PumpPending(Connection* connection) {
  if (!connection->paused ||
      connection->write_bytes > limits_.write_low_watermark) {
    return;
  }
  connection->paused = false;
  counters_.Resume();
  if (phase_.load() != kFlushing) {
    connection->want_read = true;
  }
  while (!connection->pending.empty() && !connection->paused) {
    connection->write_bytes += connection->pending.front().size();
    connection->write_queue.push_back(
        std::move(connection->pending.front()));
    connection->pending.pop_front();
    MaybePause(connection);
  }
  connection->want_write = connection->write_bytes > 0;
  UpdateInterest(connection);
}

void EventLoop::DeliverEvent(Connection* connection, std::string&& line) {
  TouchDeadline(connection);
  if (connection->paused) {
    connection->pending.push_back(std::move(line));
    return;
  }
  connection->write_bytes += line.size();
  connection->write_queue.push_back(std::move(line));
  MaybePause(connection);
  FlushWrites(connection);
}

void EventLoop::FlushWrites(Connection* connection) {
  while (!connection->write_queue.empty()) {
    const std::string& front = connection->write_queue.front();
    const ssize_t n = ::send(
        connection->fd, front.data() + connection->write_front_offset,
        front.size() - connection->write_front_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // A partial drain may already be under the low watermark:
        // resume there, as the TransportLimits contract promises, not
        // only when the queue fully empties.
        PumpPending(connection);
        connection->want_write = true;
        UpdateInterest(connection);
        return;
      }
      CloseConnection(connection->id);
      return;
    }
    connection->write_front_offset += static_cast<size_t>(n);
    connection->write_bytes -= static_cast<size_t>(n);
    if (connection->write_front_offset ==
        connection->write_queue.front().size()) {
      connection->write_queue.pop_front();
      connection->write_front_offset = 0;
    }
    TouchDeadline(connection);
  }
  connection->want_write = false;
  PumpPending(connection);
  UpdateInterest(connection);
}

void EventLoop::HandleReadable(Connection* connection) {
  char chunk[16384];
  for (;;) {
    if (connection->paused || !connection->want_read) return;
    const ssize_t n = ::recv(connection->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConnection(connection->id);
      return;
    }
    if (n == 0) {
      // Peer hung up: the connection is closed out and any still-running
      // job's events are dropped.
      CloseConnection(connection->id);
      return;
    }
    TouchDeadline(connection);
    const uint64_t id = connection->id;
    bool closed = false;
    connection->framer.Feed(
        chunk, static_cast<size_t>(n),
        [this, id, &closed](std::string&& line) {
          if (closed) return;
          // Submissions enter the service on the loop thread; accepted/
          // error head events and cache hits come back through the
          // completion queue (EnqueueEvent), engine results later from
          // the scheduler's workers. If the service's synchronous sink
          // call raced a close it would be dropped by id lookup anyway.
          EventLoop* loop = this;
          service_->Submit(line,
                           [loop, id](const std::string& event_line) {
                             loop->EnqueueEvent(id, event_line);
                           });
          closed = connections_.find(id) == connections_.end();
        },
        [this, id, &closed]() {
          if (closed) return;
          counters_.OversizedLine();
          // Route through the completion queue, not DeliverEvent: an
          // inline flush whose send() fails would destroy this
          // connection — and the framer Feed is still executing on.
          EnqueueEvent(id, ErrorEventLine(
                               "", ErrorCode::kBadRequest,
                               "request line exceeds " +
                                   std::to_string(limits_.max_line_bytes) +
                                   " bytes"));
        });
    if (connections_.find(id) == connections_.end()) return;
  }
}

void EventLoop::ProcessCompletions() {
  std::vector<std::pair<uint64_t, std::string>> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (auto& completion : batch) {
    auto found = connections_.find(completion.first);
    if (found == connections_.end()) continue;  // Connection is gone.
    DeliverEvent(found->second.get(), std::move(completion.second));
  }
}

void EventLoop::SweepIdle() {
  if (limits_.idle_timeout_ms <= 0) return;
  const int64_t now = NowMs();
  while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
    const uint64_t id = deadlines_.begin()->second;
    counters_.IdleClose();
    CloseConnection(id);  // Erases the deadline entry too.
  }
}

int EventLoop::NextTimeoutMs() const {
  bool bounded = false;
  int64_t next = 0;
  if (!deadlines_.empty()) {
    next = deadlines_.begin()->first - NowMs();
    bounded = true;
  }
  if (phase_.load() == kFlushing) {
    const int64_t flush = flush_deadline_ms_.load() - NowMs();
    next = bounded ? std::min(next, flush) : flush;
    bounded = true;
  }
  if (!bounded) return -1;
  if (next < 0) return 0;
  if (next > INT_MAX) return INT_MAX;
  return static_cast<int>(next);
}

void EventLoop::Run() {
  bool flushing_entered = false;
  for (;;) {
    const int phase = phase_.load();
    if (phase >= kAcceptClosed) CloseListener();
    if (phase == kFlushing && !flushing_entered) {
      flushing_entered = true;
      // The service has drained: every event is either in the
      // completion queue or already in a connection's queues. Stop
      // reading requests and flush.
      for (auto& entry : connections_) {
        entry.second->want_read = false;
        UpdateInterest(entry.second.get());
      }
    }
    if (flushing_entered) {
      ProcessCompletions();
      // Close connections with nothing left to deliver; force-close
      // everything once the flush deadline passes.
      std::vector<uint64_t> done;
      const bool expired = NowMs() >= flush_deadline_ms_.load();
      for (auto& entry : connections_) {
        Connection* connection = entry.second.get();
        if (expired || (connection->write_bytes == 0 &&
                        connection->pending.empty())) {
          done.push_back(entry.first);
        }
      }
      for (uint64_t id : done) CloseConnection(id);
      if (connections_.empty()) {
        CloseListener();
        return;
      }
    }

    struct epoll_event events[64];
    const int n =
        ::epoll_wait(epoll_fd_, events, 64, NextTimeoutMs());
    if (n < 0 && errno != EINTR) {
      // The loop descriptor failed hard; release every client socket
      // (via ~Connection) instead of leaking them for the process
      // lifetime.
      deadlines_.clear();
      connections_.clear();
      return;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == 0) {
        HandleAccept();
        continue;
      }
      if (id == 1) {
        uint64_t drained = 0;
        (void)!::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      auto found = connections_.find(id);
      if (found == connections_.end()) continue;
      Connection* connection = found->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // Both directions are gone (EPOLLHUP) or the socket failed
        // (EPOLLERR); flush what the kernel will still take, then drop
        // the connection.
        if (connection->write_bytes > 0) {
          FlushWrites(connection);
          if (connections_.find(id) == connections_.end()) continue;
        }
        CloseConnection(id);
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        FlushWrites(connection);
        if (connections_.find(id) == connections_.end()) continue;
      }
      if (events[i].events & EPOLLIN) {
        HandleReadable(connection);
      }
    }
    ProcessCompletions();
    SweepIdle();
  }
}

}  // namespace serve
}  // namespace eqimpact
