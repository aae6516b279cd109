#include "ohpx/transport/http.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "ohpx/common/error.hpp"

namespace ohpx::transport {
namespace {

// Request heads larger than this are refused — nothing the introspection
// plane serves needs more than a method line and a few headers.
constexpr std::size_t kMaxRequestHead = 8u << 10;

[[noreturn]] void throw_errno(const char* what) {
  throw TransportError(ErrorCode::transport_io,
                       std::string(what) + ": " + std::strerror(errno));
}

const char* reason_phrase(int status) noexcept {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Internal Server Error";
  }
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void send_response(int fd, const HttpResponse& response) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     reason_phrase(response.status) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  head += "Connection: close\r\n\r\n";
  send_all(fd, head);
  send_all(fd, response.body);
}

}  // namespace

HttpListener::HttpListener(std::uint16_t port, HttpHandler handler)
    : handler_(std::move(handler)),
      acceptor_("127.0.0.1", port, [this](int fd) { serve_connection(fd); }) {}

void HttpListener::serve_connection(int fd) {
  // Read until the end of the request head; the body (if any) is
  // ignored — every introspection endpoint is a GET.
  std::string head;
  char chunk[2048];
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (head.size() > kMaxRequestHead) {
      send_response(fd, {400, "text/plain", "request head too large\n"});
      return;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer vanished mid-request
    }
    if (n == 0) return;  // EOF before a full request
    head.append(chunk, static_cast<std::size_t>(n));
  }

  // Request line: METHOD SP PATH SP VERSION.
  const std::size_t line_end = head.find("\r\n");
  const std::string line = head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    send_response(fd, {400, "text/plain", "malformed request line\n"});
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  if (method != "GET") {
    send_response(fd, {405, "text/plain", "only GET is served here\n"});
    return;
  }

  HttpResponse response;
  try {
    response = handler_(path);
  } catch (const std::exception& e) {
    response = {500, "text/plain", std::string("handler error: ") +
                                       e.what() + "\n"};
  }
  send_response(fd, response);
}

}  // namespace ohpx::transport
