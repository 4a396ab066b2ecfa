#include "serve/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace eqimpact {
namespace serve {

Server::Server(const ServerOptions& options)
    : options_(options),
      service_(new ExperimentService(options.service)) {}

Server::~Server() { Shutdown(); }

bool Server::Start() {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("serve: socket");
    return false;
  }
  const int enable = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in address;
  std::memset(&address, 0, sizeof(address));
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(options_.port);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) < 0) {
    std::perror("serve: bind");
    ::close(listen_fd);
    return false;
  }
  if (::listen(listen_fd, 64) < 0) {
    std::perror("serve: listen");
    ::close(listen_fd);
    return false;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  // The loop owns the listener from here on, including on failure.
  loop_.reset(new EventLoop(listen_fd, service_.get(), options_.limits));
  if (!loop_->Init()) {
    loop_.reset();
    return false;
  }
  loop_thread_ = std::thread([this] { loop_->Run(); });
  return true;
}

void Server::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (shutdown_complete_) return;
  shutdown_complete_ = true;
  if (!loop_) {
    service_->Shutdown();
    return;
  }
  // Stop accepting, drain the service (every result event reaches the
  // completion queue before Shutdown returns), then flush queued bytes
  // out and let the loop exit.
  loop_->StopAccepting();
  service_->Shutdown();
  loop_->BeginFlushShutdown();
  if (loop_thread_.joinable()) loop_thread_.join();
}

TransportStats Server::transport_stats() const {
  return loop_ ? loop_->stats() : TransportStats();
}

}  // namespace serve
}  // namespace eqimpact
