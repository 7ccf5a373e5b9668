#ifndef HALK_TESTS_NET_HTTP_CLIENT_FOR_TEST_H_
#define HALK_TESTS_NET_HTTP_CLIENT_FOR_TEST_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

namespace halk::net {

/// A parsed HTTP response from the test client. status 0 means the
/// request never completed (connect/send/recv failure).
struct TestHttpResponse {
  int status = 0;
  std::string content_type;
  std::string body;
};

/// Opens a TCP connection to 127.0.0.1:`port`; -1 on failure. A positive
/// `recv_timeout_ms` bounds every later recv on the socket, so a test
/// against a wedged server fails instead of hanging.
inline int ConnectLoopback(int port, int recv_timeout_ms = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (recv_timeout_ms > 0) {
    timeval tv;
    tv.tv_sec = recv_timeout_ms / 1000;
    tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `raw` bytes to 127.0.0.1:`port` and returns everything the
/// server writes back until it closes the connection (or, with a positive
/// `recv_timeout_ms`, until a recv waits that long).
inline std::string RawHttpExchange(int port, const std::string& raw,
                                   int recv_timeout_ms = 0) {
  const int fd = ConnectLoopback(port, recv_timeout_ms);
  if (fd < 0) return "";
  size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Minimal blocking GET against the embedded server, parsing the status
/// line, Content-Type header, and body out of the raw response.
inline TestHttpResponse HttpGet(int port, const std::string& path,
                                int recv_timeout_ms = 0) {
  TestHttpResponse out;
  const std::string raw = RawHttpExchange(
      port,
      "GET " + path +
          " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
      recv_timeout_ms);
  if (raw.empty()) return out;
  const size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) return out;
  const std::string status_line = raw.substr(0, line_end);
  const size_t sp = status_line.find(' ');
  if (sp == std::string::npos) return out;
  out.status = std::atoi(status_line.c_str() + sp + 1);
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return out;
  const std::string head = raw.substr(0, head_end);
  const size_t ct = head.find("Content-Type: ");
  if (ct != std::string::npos) {
    const size_t ct_end = head.find("\r\n", ct);
    out.content_type = head.substr(ct + 14, ct_end - (ct + 14));
  }
  out.body = raw.substr(head_end + 4);
  return out;
}

}  // namespace halk::net

#endif  // HALK_TESTS_NET_HTTP_CLIENT_FOR_TEST_H_
