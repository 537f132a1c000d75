#include "net/http.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace saad::net {
namespace {

using Status = HttpParser::Status;

#define SKIP_IF_METRICS_DISABLED()                                     \
  if (!obs::kMetricsEnabled)                                           \
  GTEST_SKIP() << "mutations compiled out (SAAD_METRICS=OFF)"

HttpParser parser(std::size_t max_line = 1024, std::size_t max_bytes = 8192,
                  std::size_t max_headers = 64) {
  return HttpParser(max_line, max_bytes, max_headers);
}

Status feed_all(HttpParser& p, const std::string& bytes) {
  return p.feed(bytes.data(), bytes.size());
}

// ---- Parser unit tests ------------------------------------------------------

TEST(HttpParser, ParsesSimpleGet) {
  auto p = parser();
  EXPECT_EQ(feed_all(p, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Status::kOk);
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_EQ(p.request().path, "/metrics");
}

TEST(HttpParser, StripsQueryAndAcceptsHead) {
  auto p = parser();
  EXPECT_EQ(feed_all(p, "HEAD /statusz?pretty=1 HTTP/1.0\r\n\r\n"),
            Status::kOk);
  EXPECT_EQ(p.request().method, "HEAD");
  EXPECT_EQ(p.request().path, "/statusz");
}

TEST(HttpParser, ToleratesBareLfLineEndings) {
  auto p = parser();
  EXPECT_EQ(feed_all(p, "GET /healthz HTTP/1.1\nHost: x\n\n"), Status::kOk);
  EXPECT_EQ(p.request().path, "/healthz");
}

TEST(HttpParser, IncrementalByteAtATimeFeed) {
  auto p = parser();
  const std::string request = "GET /spans HTTP/1.1\r\nAccept: */*\r\n\r\n";
  for (std::size_t i = 0; i + 1 < request.size(); ++i)
    ASSERT_EQ(p.feed(&request[i], 1), Status::kNeedMore) << "byte " << i;
  EXPECT_EQ(p.feed(&request[request.size() - 1], 1), Status::kOk);
  EXPECT_EQ(p.request().path, "/spans");
}

TEST(HttpParser, RejectsNonGetHeadAsBadMethod) {
  auto p = parser();
  EXPECT_EQ(feed_all(p, "POST /metrics HTTP/1.1\r\n\r\n"), Status::kBadMethod);
}

TEST(HttpParser, RejectsBodies) {
  auto trailing = parser();
  EXPECT_EQ(feed_all(trailing, "GET / HTTP/1.1\r\n\r\nxx"),
            Status::kBadRequest);
  auto length = parser();
  EXPECT_EQ(feed_all(length, "GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\n"),
            Status::kBadRequest);
  auto chunked = parser();
  EXPECT_EQ(
      feed_all(chunked, "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
      Status::kBadRequest);
  auto zero = parser();
  EXPECT_EQ(feed_all(zero, "GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n"),
            Status::kOk);
}

TEST(HttpParser, RejectsMalformedRequestLines) {
  for (const char* bad : {
           "GET /\r\n\r\n",                       // missing version
           "GET / HTTP/1.1 extra\r\n\r\n",        // four tokens
           "GET / HTTP/2\r\n\r\n",                // wrong version shape
           "get / HTTP/1.1\r\n\r\n",              // lowercase method
           "GET metrics HTTP/1.1\r\n\r\n",        // target not absolute
           "GET /a b HTTP/1.1\r\n\r\n",           // space inside target
           "\r\n\r\n",                            // empty head
           "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",  // malformed header
       }) {
    auto p = parser();
    EXPECT_EQ(feed_all(p, bad), Status::kBadRequest) << bad;
  }
}

TEST(HttpParser, OversizedRequestLineIsLineTooLong) {
  auto p = parser(64, 8192, 64);
  const std::string request =
      "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n";
  EXPECT_EQ(feed_all(p, request), Status::kLineTooLong);

  // The cap also fires before any newline arrives (slow-loris style).
  auto drip = parser(64, 8192, 64);
  const std::string long_line = "GET /" + std::string(200, 'b');
  EXPECT_EQ(feed_all(drip, long_line), Status::kLineTooLong);
}

TEST(HttpParser, OversizedHeadIsHeadersTooBig) {
  auto p = parser(1024, 256, 64);
  const std::string request = "GET / HTTP/1.1\r\nX-Pad: " +
                              std::string(400, 'c') + "\r\n\r\n";
  EXPECT_EQ(feed_all(p, request), Status::kHeadersTooBig);

  auto many = parser(1024, 8192, 4);
  std::string headers = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 8; ++i)
    headers += "X-H" + std::to_string(i) + ": v\r\n";
  headers += "\r\n";
  EXPECT_EQ(feed_all(many, headers), Status::kHeadersTooBig);
}

TEST(HttpParser, VerdictIsSticky) {
  auto p = parser();
  EXPECT_EQ(feed_all(p, "BAD\r\n\r\n"), Status::kBadRequest);
  EXPECT_EQ(feed_all(p, "GET / HTTP/1.1\r\n\r\n"), Status::kBadRequest);
}

// ---- Live server tests ------------------------------------------------------

struct HttpCounters {
  std::uint64_t requests, parse_rejects, request_line_rejects, header_rejects,
      method_rejects, not_found, truncated;

  static std::uint64_t value(const char* name) {
    return obs::MetricsRegistry::global().counter(name, "").value();
  }
  static std::uint64_t response_value(const char* code) {
    return obs::MetricsRegistry::global()
        .counter("saad_http_responses_total", "", {{"code", code}})
        .value();
  }
  static HttpCounters snap() {
    return HttpCounters{value("saad_http_requests_total"),
                        value("saad_http_parse_rejects_total"),
                        value("saad_http_request_line_rejects_total"),
                        value("saad_http_header_rejects_total"),
                        value("saad_http_method_rejects_total"),
                        value("saad_http_not_found_total"),
                        value("saad_http_truncated_total")};
  }
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One request, read to EOF (the admin plane always closes after a response).
std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  if (fd < 0) return "";
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t w = ::write(fd, request.data() + off, request.size() - off);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

class AdminServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AdminServer::Options options;
    options.max_request_line = 128;
    options.max_request_bytes = 512;
    options.max_headers = 8;
    server_ = std::make_unique<AdminServer>(options);
    server_->route("/ping", [](const HttpRequest&) {
      HttpResponse response;
      response.body = "pong\n";
      return response;
    });
    server_->route("/stream", [](const HttpRequest&) {
      HttpResponse response;
      response.body_writer = [](int fd) {
        const char chunk[] = "streamed-body\n";
        [[maybe_unused]] const auto n = ::write(fd, chunk, sizeof(chunk) - 1);
      };
      return response;
    });
    server_->route("/unavailable", [](const HttpRequest&) {
      HttpResponse response;
      response.status = 503;
      response.body = "not ready\n";
      return response;
    });
    ASSERT_TRUE(server_->start());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override { server_->stop(); }

  std::unique_ptr<AdminServer> server_;
};

TEST_F(AdminServerTest, ServesRegisteredRoute) {
  const std::string response =
      http_exchange(server_->port(), "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_EQ(response.substr(response.size() - 5), "pong\n");
}

TEST_F(AdminServerTest, HeadOmitsBody) {
  const std::string response =
      http_exchange(server_->port(), "HEAD /ping HTTP/1.1\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_EQ(response.find("pong"), std::string::npos);
}

TEST_F(AdminServerTest, StreamedBodyIsCloseDelimited) {
  const std::string response =
      http_exchange(server_->port(), "GET /stream HTTP/1.1\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_EQ(response.find("Content-Length:"), std::string::npos) << response;
  EXPECT_NE(response.find("\r\n\r\nstreamed-body\n"), std::string::npos);
}

TEST_F(AdminServerTest, HandlerStatusPassesThrough) {
  const std::string response =
      http_exchange(server_->port(), "GET /unavailable HTTP/1.1\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u)
      << response;
}

TEST_F(AdminServerTest, UnknownPathCounts404Exactly) {
  SKIP_IF_METRICS_DISABLED();
  const auto before = HttpCounters::snap();
  const auto r404 = HttpCounters::response_value("404");
  const std::string response =
      http_exchange(server_->port(), "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u) << response;
  const auto after = HttpCounters::snap();
  EXPECT_EQ(after.requests, before.requests + 1);
  EXPECT_EQ(after.not_found, before.not_found + 1);
  EXPECT_EQ(HttpCounters::response_value("404"), r404 + 1);
  EXPECT_EQ(after.parse_rejects, before.parse_rejects);
  EXPECT_EQ(after.method_rejects, before.method_rejects);
}

TEST_F(AdminServerTest, OversizedRequestLineCounts414Exactly) {
  SKIP_IF_METRICS_DISABLED();
  const auto before = HttpCounters::snap();
  const auto r414 = HttpCounters::response_value("414");
  const std::string request =
      "GET /" + std::string(300, 'a') + " HTTP/1.1\r\n\r\n";
  const std::string response = http_exchange(server_->port(), request);
  EXPECT_EQ(response.rfind("HTTP/1.1 414 URI Too Long\r\n", 0), 0u)
      << response;
  const auto after = HttpCounters::snap();
  EXPECT_EQ(after.request_line_rejects, before.request_line_rejects + 1);
  EXPECT_EQ(HttpCounters::response_value("414"), r414 + 1);
  EXPECT_EQ(after.header_rejects, before.header_rejects);
  EXPECT_EQ(after.parse_rejects, before.parse_rejects);
  EXPECT_EQ(after.requests, before.requests);
  EXPECT_EQ(after.truncated, before.truncated);
}

TEST_F(AdminServerTest, OversizedHeadersCount431Exactly) {
  SKIP_IF_METRICS_DISABLED();
  const auto before = HttpCounters::snap();
  const auto r431 = HttpCounters::response_value("431");
  const std::string request =
      "GET /ping HTTP/1.1\r\nX-Pad: " + std::string(600, 'b') + "\r\n\r\n";
  const std::string response = http_exchange(server_->port(), request);
  EXPECT_EQ(
      response.rfind("HTTP/1.1 431 Request Header Fields Too Large\r\n", 0),
      0u)
      << response;
  const auto after = HttpCounters::snap();
  EXPECT_EQ(after.header_rejects, before.header_rejects + 1);
  EXPECT_EQ(HttpCounters::response_value("431"), r431 + 1);
  EXPECT_EQ(after.request_line_rejects, before.request_line_rejects);
  EXPECT_EQ(after.parse_rejects, before.parse_rejects);
  EXPECT_EQ(after.requests, before.requests);
}

TEST_F(AdminServerTest, PostCounts405AndMalformedCounts400) {
  SKIP_IF_METRICS_DISABLED();
  const auto before = HttpCounters::snap();
  const std::string post =
      http_exchange(server_->port(), "POST /ping HTTP/1.1\r\n\r\n");
  EXPECT_EQ(post.rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0), 0u) << post;
  const std::string bad = http_exchange(server_->port(), "NOT-HTTP\r\n\r\n");
  EXPECT_EQ(bad.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << bad;
  const auto after = HttpCounters::snap();
  EXPECT_EQ(after.method_rejects, before.method_rejects + 1);
  EXPECT_EQ(after.parse_rejects, before.parse_rejects + 1);
  EXPECT_EQ(after.requests, before.requests);
}

TEST_F(AdminServerTest, DisconnectMidRequestCountsTruncated) {
  SKIP_IF_METRICS_DISABLED();
  const auto before = HttpCounters::snap();
  const int fd = connect_to(server_->port());
  ASSERT_GE(fd, 0);
  const char partial[] = "GET /ping HT";
  ASSERT_EQ(::write(fd, partial, sizeof(partial) - 1),
            static_cast<ssize_t>(sizeof(partial) - 1));
  // Give the I/O thread a poll cycle to ingest the partial bytes before the
  // close lands, so the parser has started.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::close(fd);
  for (int i = 0; i < 200; ++i) {
    if (HttpCounters::snap().truncated > before.truncated) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto after = HttpCounters::snap();
  EXPECT_EQ(after.truncated, before.truncated + 1);
  EXPECT_EQ(after.requests, before.requests);
  EXPECT_EQ(after.parse_rejects, before.parse_rejects);
}

TEST(AdminServer, StopIsIdempotentAndRestartable) {
  AdminServer::Options options;
  AdminServer server{options};
  server.route("/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong\n";
    return response;
  });
  ASSERT_TRUE(server.start());
  const std::uint16_t first_port = server.port();
  EXPECT_NE(first_port, 0);
  server.stop();
  server.stop();
  EXPECT_FALSE(server.running());
  ASSERT_TRUE(server.start());
  const std::string response =
      http_exchange(server.port(), "GET /ping HTTP/1.1\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  server.stop();
}

TEST(AdminServer, StartFailsOnOccupiedPort) {
  AdminServer::Options options;
  AdminServer first{options};
  ASSERT_TRUE(first.start());
  AdminServer::Options clash = options;
  clash.port = first.port();
  AdminServer second{clash};
  EXPECT_FALSE(second.start());
  first.stop();
}

// Connects, sends `request` and hangs up without reading the response.
void hang_up_after(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  ::close(fd);
}

// A scraper that hangs up leaves the server writing to a reset socket. The
// write must fail, not raise SIGPIPE and kill the process, whether the
// server writes the body itself or a body_writer does.
TEST(AdminServer, ScrapersThatHangUpDoNotKillTheProcess) {
  AdminServer server;
  server.route("/big", [](const HttpRequest&) {
    HttpResponse response;
    response.body.assign(300 * 1024, 'x');
    return response;
  });
  server.route("/chunks", [](const HttpRequest&) {
    HttpResponse response;
    response.body_writer = [](int fd) {
      const std::string chunk(512, 'y');
      for (int i = 0; i < 1000; ++i) {
        [[maybe_unused]] const auto n = ::write(fd, chunk.data(), chunk.size());
      }
    };
    return response;
  });
  server.route("/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong\n";
    return response;
  });
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 50; ++i) {
    hang_up_after(server.port(), "GET /big HTTP/1.1\r\n\r\n");
    hang_up_after(server.port(), "GET /chunks HTTP/1.1\r\n\r\n");
  }
  // The hang-ups arrive faster than they are served, so the first tries may
  // find every connection slot taken and be refused.
  std::string response;
  for (int i = 0; i < 50; ++i) {
    response = http_exchange(server.port(), "GET /ping HTTP/1.1\r\n\r\n");
    if (!response.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_TRUE(server.running());
  server.stop();
}

// Connections that never finish a request head give their slots back at
// the 5 s deadline, so max_connections of them lock scrapers out for at
// most that long; each such close is counted.
TEST(AdminServer, IdleConnectionsExpireAndFreeTheirSlots) {
  AdminServer::Options options;
  options.max_connections = 4;
  AdminServer server{options};
  server.route("/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong\n";
    return response;
  });
  ASSERT_TRUE(server.start());
  const auto timeouts_before =
      HttpCounters::value("saad_http_request_timeouts_total");
  const auto truncated_before = HttpCounters::snap().truncated;

  std::vector<int> idle;
  for (std::size_t i = 0; i < options.max_connections; ++i) {
    idle.push_back(connect_to(server.port()));
    ASSERT_GE(idle.back(), 0);
  }
  // One of them is a slow loris: a started head that never completes.
  const char partial[] = "GET /ping HT";
  ASSERT_EQ(::send(idle[0], partial, sizeof(partial) - 1, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(partial) - 1));

  const auto started = std::chrono::steady_clock::now();
  std::string response;
  while (std::chrono::steady_clock::now() - started < std::chrono::seconds(7)) {
    response = http_exchange(server.port(), "GET /ping HTTP/1.1\r\n\r\n");
    if (response.rfind("HTTP/1.1 200 OK\r\n", 0) == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u)
      << "no scrape got through within the deadline plus 2 s";
  for (const int fd : idle) ::close(fd);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(HttpCounters::value("saad_http_request_timeouts_total"),
              timeouts_before + options.max_connections);
    EXPECT_EQ(HttpCounters::snap().truncated, truncated_before);
  }
  server.stop();
}

// Past max_connections the listener accepts and closes at once, counts the
// refusal, and the connections already open are still served.
TEST(AdminServer, ConnectionPastMaxConnectionsIsRefusedAndCounted) {
  AdminServer::Options options;
  options.max_connections = 2;
  AdminServer server{options};
  server.route("/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong\n";
    return response;
  });
  ASSERT_TRUE(server.start());
  const auto rejected_before =
      HttpCounters::value("saad_http_connections_rejected_total");

  const int first = connect_to(server.port());
  const int second = connect_to(server.port());
  const int refused = connect_to(server.port());
  ASSERT_GE(first, 0);
  ASSERT_GE(second, 0);
  ASSERT_GE(refused, 0);
  timeval tv{5, 0};
  ::setsockopt(refused, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  char byte = 0;
  const ssize_t n = ::recv(refused, &byte, 1, 0);
  EXPECT_TRUE(n == 0 || (n < 0 && errno == ECONNRESET))
      << "refused connection stayed open";
  ::close(refused);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(HttpCounters::value("saad_http_connections_rejected_total"),
              rejected_before + 1);
  }

  for (const int fd : {first, second}) {
    const std::string request = "GET /ping HTTP/1.1\r\n\r\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char buf[256];
    for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) > 0;)
      response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  }
  server.stop();
}

}  // namespace
}  // namespace saad::net
