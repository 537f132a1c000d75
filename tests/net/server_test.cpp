// SynopsisServer's bounds, driven over raw loopback sockets: the overload
// policy (a bounded pending queue that sheds its oldest batch, and a
// published-minus-acked watermark) with a stalled consumer, and the
// max_connections refusal on the listener's shared accept path.
#include "net/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "core/channel.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace saad::net {
namespace {

using core::Synopsis;

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

void send_bytes(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t w =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << "send failed after " << sent << " bytes";
    sent += static_cast<std::size_t>(w);
  }
}

/// Synopsis number `seq`, which it carries as its start time.
Synopsis numbered(std::uint64_t seq) {
  Synopsis s;
  s.stage = 1;
  s.host = 2;
  s.start = static_cast<UsTime>(seq);
  s.duration = 1000;
  s.log_points.push_back({3, 1});
  return s;
}

std::vector<std::uint8_t> hello_prefix() {
  std::vector<std::uint8_t> bytes(std::begin(kStreamMagic),
                                  std::end(kStreamMagic));
  std::vector<std::uint8_t> payload;
  encode_hello(Hello{}, payload);
  encode_frame(FrameType::kHello, payload, bytes);
  return bytes;
}

/// Batch frames of the given sizes, numbered consecutively from `first`,
/// then a goodbye that claims all of them.
std::vector<std::uint8_t> batches_and_goodbye(
    const std::vector<std::size_t>& sizes, std::uint64_t first = 0) {
  std::vector<std::uint8_t> bytes, payload;
  std::uint64_t seq = first;
  for (const std::size_t size : sizes) {
    std::vector<Synopsis> batch;
    for (std::size_t i = 0; i < size; ++i) batch.push_back(numbered(seq++));
    payload.clear();
    encode_batch(batch, payload);
    encode_frame(FrameType::kBatch, payload, bytes);
  }
  payload.clear();
  encode_goodbye(seq - first, payload);
  encode_frame(FrameType::kGoodbye, payload, bytes);
  return bytes;
}

/// Polls `done` until it holds or 5 s pass; `each` runs on every poll.
bool wait_until(const std::function<bool()>& done,
                const std::function<void()>& each = [] {}) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    each();
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name, "").value();
}

// Forty 30-synopsis batches and a last one of 20 against a queue of four
// batches and a watermark of 100, with nothing drained or acked until the
// session ends: three batches are published, the queue keeps the newest,
// and every other batch is shed and counted.
TEST(SynopsisServerOverload, StalledConsumerShedsTheOldestAndCountsIt) {
  constexpr std::uint64_t kWatermark = 100;
  core::SynopsisChannel channel;
  SynopsisServer::Options options;
  options.max_pending_batches = 4;
  options.max_outstanding_synopses = kWatermark;
  SynopsisServer server(&channel, options);
  ASSERT_TRUE(server.start());

  std::vector<std::size_t> sizes(40, 30);
  sizes.push_back(20);  // the last batch sent
  std::uint64_t sent = 0;
  for (const std::size_t size : sizes) sent += size;
  auto bytes = hello_prefix();
  const auto body = batches_and_goodbye(sizes);
  bytes.insert(bytes.end(), body.begin(), body.end());

  const int fd = dial(server.port());
  send_bytes(fd, bytes);
  std::uint64_t most_outstanding = 0;
  const auto watch = [&] {
    most_outstanding = std::max(most_outstanding, server.outstanding());
  };
  ASSERT_TRUE(wait_until(
      [&] {
        return server.sessions_finished() == 1 &&
               server.stats().published == 90;
      },
      watch));
  ::close(fd);
  // A few publish retries later, still nothing acked: nothing more goes out.
  for (int i = 0; i < 60; ++i) {
    watch();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(most_outstanding, kWatermark);
  EXPECT_EQ(server.stats().published, 90u);
  EXPECT_FALSE(server.drained());

  server.stop();  // lifts the watermark and publishes the pending queue
  std::vector<Synopsis> drained;
  channel.drain(drained);
  server.ack(drained.size());

  // Which batches were shed depends on how the bytes were chunked by recv;
  // the accounting and the order do not.
  const auto stats = server.stats();
  EXPECT_EQ(stats.synopses, sent);
  EXPECT_EQ(stats.published, drained.size());
  EXPECT_EQ(drained.size() + stats.shed_synopses, sent);
  EXPECT_GT(stats.shed_batches, 0u);
  EXPECT_EQ(stats.shed_synopses, 30 * stats.shed_batches);
  EXPECT_TRUE(server.drained());
  for (std::size_t i = 1; i < drained.size(); ++i)
    ASSERT_LT(drained[i - 1].start, drained[i].start) << "reordered at " << i;
  // The last batch always survives, whole.
  ASSERT_GE(drained.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(drained[drained.size() - 20 + i].start,
              static_cast<UsTime>(sent - 20 + i));
  }
}

// A batch larger than the watermark is published on its own even with
// nothing acked; the next one waits until ack() frees room and is published
// without any new traffic arriving.
TEST(SynopsisServerOverload, OversizedBatchPassesAloneAndAckReleasesTheNext) {
  core::SynopsisChannel channel;
  SynopsisServer::Options options;
  options.max_outstanding_synopses = 100;
  SynopsisServer server(&channel, options);
  ASSERT_TRUE(server.start());

  auto bytes = hello_prefix();
  const auto body = batches_and_goodbye({150, 30});
  bytes.insert(bytes.end(), body.begin(), body.end());
  const int fd = dial(server.port());
  send_bytes(fd, bytes);
  ASSERT_TRUE(wait_until([&] {
    return server.sessions_finished() == 1 && server.stats().published == 150;
  }));
  ::close(fd);
  for (int i = 0; i < 60 && server.stats().published == 150; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.stats().published, 150u);
  EXPECT_EQ(server.outstanding(), 150u);
  EXPECT_FALSE(server.drained());

  std::vector<Synopsis> drained;
  channel.drain(drained);
  ASSERT_EQ(drained.size(), 150u);
  server.ack(drained.size());
  ASSERT_TRUE(wait_until([&] { return server.drained(); }))
      << "an ack below the watermark never released the held batch";
  EXPECT_EQ(server.stats().published, 180u);
  channel.drain(drained);
  ASSERT_EQ(drained.size(), 180u);
  for (std::size_t i = 0; i < drained.size(); ++i)
    EXPECT_EQ(drained[i].start, static_cast<UsTime>(i));
  EXPECT_EQ(server.stats().shed_synopses, 0u);
  server.stop();
}

// Past max_connections the listener accepts and closes at once, counts the
// refusal, and the connections already open keep working.
TEST(SynopsisServerLimits, ConnectionPastMaxConnectionsIsRefusedAndCounted) {
  core::SynopsisChannel channel;
  SynopsisServer::Options options;
  options.max_connections = 2;
  SynopsisServer server(&channel, options);
  ASSERT_TRUE(server.start());
  const std::uint64_t rejected_before =
      counter_value("saad_net_connections_rejected_total");

  const int first = dial(server.port());
  const int second = dial(server.port());
  send_bytes(first, hello_prefix());
  send_bytes(second, hello_prefix());
  ASSERT_TRUE(wait_until([&] { return server.stats().frames == 2; }));
  EXPECT_EQ(server.active_connections(), 2u);

  const int refused = dial(server.port());
  timeval tv{5, 0};
  ::setsockopt(refused, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  char byte = 0;
  const ssize_t n = ::recv(refused, &byte, 1, 0);
  EXPECT_TRUE(n == 0 || (n < 0 && errno == ECONNRESET))
      << "refused connection stayed open";
  ::close(refused);
  ASSERT_TRUE(
      wait_until([&] { return server.stats().connections_rejected == 1; }));
  EXPECT_EQ(server.stats().connections, 2u);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(counter_value("saad_net_connections_rejected_total"),
              rejected_before + 1);
  }

  send_bytes(first, batches_and_goodbye({10}, 0));
  send_bytes(second, batches_and_goodbye({10}, 100));
  std::vector<Synopsis> drained;
  ASSERT_TRUE(wait_until(
      [&] { return drained.size() >= 20 && server.sessions_finished() == 2; },
      [&] { channel.drain(drained); }));
  ::close(first);
  ::close(second);
  EXPECT_EQ(drained.size(), 20u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.goodbyes, 2u);
  EXPECT_EQ(stats.goodbye_mismatches, 0u);
  EXPECT_EQ(stats.truncated, 0u);
  server.stop();
}

}  // namespace
}  // namespace saad::net
