// Concurrency stress for the admin plane, run under tsan in CI (label
// net-stress, like server_stress_test.cpp for the ingest listener): many
// scrapers hammer a live AdminServer from parallel threads while the
// "serving loop" keeps mutating the shared registry, so any data race
// between the I/O thread, handlers, and instrumentation is visible.
#include "net/http.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"

namespace saad::net {
namespace {

std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t w = ::write(fd, request.data() + off, request.size() - off);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  std::string response;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(AdminServerStress, ConcurrentScrapersSeeConsistentResponses) {
  AdminServer::Options options;
  options.max_connections = 64;
  AdminServer server{options};
  std::atomic<std::uint64_t> pipeline_progress{0};
  server.route("/metrics", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::render_prometheus(obs::MetricsRegistry::global());
    return response;
  });
  server.route("/statusz", [&pipeline_progress](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body =
        "{\"progress\":" +
        std::to_string(
            pipeline_progress.load(std::memory_order_relaxed)) +
        "}";
    return response;
  });
  ASSERT_TRUE(server.start());
  const std::uint16_t port = server.port();

  // A stand-in for the serving loop: mutates the registry the /metrics
  // handler snapshots, so scrapes race real instrumentation writes.
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    auto& counter = obs::MetricsRegistry::global().counter(
        "saad_test_stress_ops_total", "stress mutator ops");
    while (!stop.load(std::memory_order_relaxed)) {
      counter.inc();
      pipeline_progress.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 25;
  std::atomic<int> ok{0}, rejected{0}, failed{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const char* path = (t + i) % 3 == 0   ? "/statusz"
                           : (t + i) % 3 == 1 ? "/metrics"
                                              : "/missing";
        const std::string response =
            http_exchange(port, std::string("GET ") + path + " HTTP/1.1\r\n\r\n");
        if (response.rfind("HTTP/1.1 200 OK\r\n", 0) == 0) {
          ok.fetch_add(1);
        } else if (response.rfind("HTTP/1.1 404 Not Found\r\n", 0) == 0) {
          rejected.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : scrapers) thread.join();
  stop.store(true, std::memory_order_relaxed);
  mutator.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(rejected.load(), 0);
  EXPECT_EQ(ok.load() + rejected.load(),
            kThreads * kRequestsPerThread);
  EXPECT_TRUE(server.running());
  server.stop();
}

TEST(AdminServerStress, ScrapersDuringStopAreCutOffCleanly) {
  AdminServer::Options options;
  AdminServer server{options};
  server.route("/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong\n";
    return response;
  });
  ASSERT_TRUE(server.start());
  const std::uint16_t port = server.port();

  std::atomic<bool> done{false};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed))
        http_exchange(port, "GET /ping HTTP/1.1\r\n\r\n");
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();  // must join cleanly with scrapes in flight
  done.store(true, std::memory_order_relaxed);
  for (auto& thread : scrapers) thread.join();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace saad::net
