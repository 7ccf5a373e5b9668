#include "net/http_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/http_client_for_test.h"

namespace halk::net {
namespace {

TEST(QueryParamTest, ParsesPairs) {
  EXPECT_EQ(QueryParam("a=1&b=2", "a"), "1");
  EXPECT_EQ(QueryParam("a=1&b=2", "b"), "2");
  EXPECT_EQ(QueryParam("a=1&b=2", "c"), "");
  EXPECT_EQ(QueryParam("a=1&b=2", "c", "9"), "9");
  EXPECT_EQ(QueryParam("", "a", "fallback"), "fallback");
  EXPECT_EQ(QueryParam("a=", "a", "fallback"), "");
}

TEST(QueryParamTest, MatchesWholeKeysOnly) {
  // `b` must not match inside `ab`, and a valueless key is not a pair.
  EXPECT_EQ(QueryParam("ab=1", "b"), "");
  EXPECT_EQ(QueryParam("seconds=5&spans=7", "s", "none"), "none");
  EXPECT_EQ(QueryParam("spans", "spans", "none"), "none");
}

TEST(HttpServerTest, BindsEphemeralPortAndStops) {
  HttpServer server;
  EXPECT_EQ(server.port(), 0);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  server.Stop();  // idempotent
}

TEST(HttpServerTest, ServesRegisteredHandler) {
  HttpServer server;
  server.Handle("/ping", [](const HttpRequest&) -> HttpResponse {
    return {200, "text/plain; charset=utf-8", "pong\n"};
  });
  ASSERT_TRUE(server.Start().ok());
  const TestHttpResponse response = HttpGet(server.port(), "/ping");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "pong\n");
  EXPECT_EQ(response.content_type, "text/plain; charset=utf-8");
  server.Stop();
}

TEST(HttpServerTest, HandlerSeesQueryString) {
  HttpServer server;
  server.Handle("/echo", [](const HttpRequest& request) -> HttpResponse {
    return {200, "text/plain; charset=utf-8",
            request.path + "|" + QueryParam(request.query, "x", "?")};
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(HttpGet(server.port(), "/echo?x=42&y=1").body, "/echo|42");
  EXPECT_EQ(HttpGet(server.port(), "/echo").body, "/echo|?");
  server.Stop();
}

TEST(HttpServerTest, UnknownPathIs404) {
  HttpServer server;
  server.Handle("/known", [](const HttpRequest&) -> HttpResponse {
    return {200, "text/plain; charset=utf-8", "ok"};
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(HttpGet(server.port(), "/unknown").status, 404);
  server.Stop();
}

TEST(HttpServerTest, NonGetIs405) {
  HttpServer server;
  server.Handle("/x", [](const HttpRequest&) -> HttpResponse {
    return {200, "text/plain; charset=utf-8", "ok"};
  });
  ASSERT_TRUE(server.Start().ok());
  const std::string raw = RawHttpExchange(
      server.port(), "POST /x HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(raw.find(" 405 "), std::string::npos) << raw;
  server.Stop();
}

TEST(HttpServerTest, MalformedRequestLineIs400) {
  HttpServer server;
  ASSERT_TRUE(server.Start().ok());
  const std::string raw =
      RawHttpExchange(server.port(), "this is not http\r\n\r\n");
  EXPECT_NE(raw.find(" 400 "), std::string::npos) << raw;
  server.Stop();
}

TEST(HttpServerTest, OversizedRequestHeadIs400) {
  HttpServer::Options options;
  options.max_request_bytes = 256;
  HttpServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::string raw = RawHttpExchange(
      server.port(), "GET /" + std::string(1024, 'a') + " HTTP/1.1\r\n\r\n");
  EXPECT_NE(raw.find(" 400 "), std::string::npos) << raw;
  server.Stop();
}

TEST(HttpServerTest, PortAlreadyBoundFailsCleanly) {
  HttpServer first;
  ASSERT_TRUE(first.Start().ok());
  HttpServer::Options taken;
  taken.port = first.port();
  HttpServer second(taken);
  const Status started = second.Start();
  EXPECT_FALSE(started.ok());
  // A failed Start leaves the server restartable on a free port.
  first.Stop();
  ASSERT_TRUE(second.Start().ok());
  EXPECT_GT(second.port(), 0);
  second.Stop();
}

// Regression: every accept thread used to block in recv with no timeout,
// so num_threads idle TCP connections made /healthz unreachable and an
// orchestrator would restart a healthy process. The per-connection I/O
// deadline drops the idle peers and the probe gets through.
TEST(HttpServerTest, IdleConnectionsCannotWedgeHealthz) {
  HttpServer::Options options;
  options.num_threads = 2;
  HttpServer server(options);
  server.Handle("/healthz", [](const HttpRequest&) -> HttpResponse {
    return {200, "application/json", "{\"status\":\"ok\"}\n"};
  });
  ASSERT_TRUE(server.Start().ok());
  // Client-side bound: a wedged server fails the test instead of hanging.
  constexpr int kClientTimeoutMs = 20000;
  std::vector<int> idle;
  for (int i = 0; i < options.num_threads + 1; ++i) {
    const int fd = ConnectLoopback(server.port(), kClientTimeoutMs);
    ASSERT_GE(fd, 0);
    idle.push_back(fd);  // connected, never sends a byte
  }

  const auto start = std::chrono::steady_clock::now();
  const TestHttpResponse health =
      HttpGet(server.port(), "/healthz", kClientTimeoutMs);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "{\"status\":\"ok\"}\n");
  // The probe queues behind at most one round of idle connections, so it
  // is answered within about one deadline; allow slack for slow runners.
  EXPECT_LT(waited, 3 * HttpServer::kIoDeadline);

  // Every idle peer was hung up on: recv sees EOF, not its own timeout.
  for (const int fd : idle) {
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);
  }
  server.Stop();
}

// TSan-targeted: concurrent clients against one server, handlers touching
// shared state, Stop racing the last requests.
TEST(HttpServerTest, ConcurrentClients) {
  HttpServer::Options options;
  options.num_threads = 4;
  HttpServer server(options);
  std::atomic<int64_t> handled{0};
  server.Handle("/inc", [&handled](const HttpRequest&) -> HttpResponse {
    // order: test counter; the final load happens after every join.
    handled.fetch_add(1, std::memory_order_relaxed);
    return {200, "text/plain; charset=utf-8", "ok\n"};
  });
  ASSERT_TRUE(server.Start().ok());
  constexpr int kClients = 8;
  constexpr int kRequests = 25;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequests; ++i) {
        if (HttpGet(server.port(), "/inc").status == 200) {
          // order: test counter, read after join.
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  EXPECT_EQ(ok_count.load(), kClients * kRequests);
  EXPECT_EQ(handled.load(), kClients * kRequests);
}

}  // namespace
}  // namespace halk::net
