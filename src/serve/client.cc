#include "serve/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "serve/json.h"

namespace eqimpact {
namespace serve {
namespace {

std::string FieldString(const JsonValue& object, const char* key) {
  const JsonValue* value = object.Find(key);
  return (value != nullptr && value->is_string()) ? value->as_string() : "";
}

size_t FieldCount(const JsonValue& object, const char* key) {
  const JsonValue* value = object.Find(key);
  return (value != nullptr && value->is_number())
             ? static_cast<size_t>(value->as_number())
             : 0;
}

bool FieldBool(const JsonValue& object, const char* key) {
  const JsonValue* value = object.Find(key);
  return value != nullptr && value->is_bool() && value->as_bool();
}

}  // namespace

bool ParseEventLine(const std::string& line, ClientEvent* event,
                    std::string* error) {
  JsonValue object;
  if (!ParseJson(line, &object, error)) return false;
  if (!object.is_object()) {
    *error = "event line is not a JSON object";
    return false;
  }
  *event = ClientEvent();
  event->event = FieldString(object, "event");
  if (event->event.empty()) {
    *error = "event line has no \"event\" field";
    return false;
  }
  event->id = FieldString(object, "id");
  event->cached = FieldBool(object, "cached");
  event->queue_depth = FieldCount(object, "queue_depth");
  event->unit = FieldString(object, "unit");
  event->index = FieldCount(object, "index");
  event->completed = FieldCount(object, "completed");
  event->total = FieldCount(object, "total");
  const std::string digest_hex = FieldString(object, "digest");
  if (!digest_hex.empty()) {
    event->digest = std::strtoull(digest_hex.c_str(), nullptr, 16);
  }
  const JsonValue* payload = object.Find("payload");
  if (payload != nullptr && payload->is_string()) {
    event->payload = payload->as_string();
  }
  event->code = FieldString(object, "code");
  event->message = FieldString(object, "message");
  return true;
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

bool Client::Connect(uint16_t port, std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // Request lines are complete messages; see serve::EventLoop.
  const int no_delay = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &no_delay, sizeof(no_delay));
  sockaddr_in address;
  std::memset(&address, 0, sizeof(address));
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) < 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  return true;
}

bool Client::Send(const std::string& request_line) {
  if (fd_ < 0) return false;
  std::string line = request_line;
  if (line.empty() || line.back() != '\n') line.push_back('\n');
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool Client::ReadEvent(ClientEvent* event, std::string* error) {
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  char chunk[4096];
  for (;;) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      const std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (line.empty()) continue;
      return ParseEventLine(line, event, error);
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = n == 0 ? "connection closed by server"
                      : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool Client::SubmitAndWait(
    const std::string& request_line, ClientEvent* last, std::string* error,
    const std::function<void(const ClientEvent&)>& on_event) {
  if (!Send(request_line)) {
    *error = "send failed";
    return false;
  }
  for (;;) {
    if (!ReadEvent(last, error)) return false;
    if (on_event) on_event(*last);
    if (last->event == "result") return true;
    if (last->event == "error") {
      *error = last->code + ": " + last->message;
      return false;
    }
  }
}

}  // namespace serve
}  // namespace eqimpact
