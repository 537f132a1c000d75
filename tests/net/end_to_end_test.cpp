// End-to-end determinism golden test for the network ingestion layer: a
// synopsis stream delivered over a real loopback TCP connection
// (SynopsisClient -> SAADNET1 frames -> SynopsisServer -> SynopsisChannel)
// must arrive bit-identical and in order, and analyzer verdicts computed on
// the delivered stream must match the in-process pipeline byte for byte —
// the wire must be invisible to detection.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/channel.h"
#include "core/detector.h"
#include "net/client.h"
#include "net/server.h"
#include "testutil/synthetic_stream.h"

namespace saad::net {
namespace {

using core::AnomalyDetector;
using core::DetectorConfig;
using core::OutlierModel;
using core::Synopsis;
using testutil::dump;
using testutil::make_trace;

/// Ships `stream` through a real loopback connection and returns what the
/// channel delivered, in delivery order.
std::vector<Synopsis> loopback_roundtrip(const std::vector<Synopsis>& stream,
                                         SynopsisServer::Stats* stats_out) {
  core::SynopsisChannel channel;
  SynopsisServer server(&channel);
  EXPECT_TRUE(server.start());

  SynopsisClient::Options options;
  options.port = server.port();
  options.batch_synopses = 256;
  options.connect_attempts_per_flush = 5;
  SynopsisClient client(options);
  for (const auto& s : stream) {
    client.enqueue(s);
    if (client.spool_size() >= options.batch_synopses) {
      EXPECT_TRUE(client.flush());
    }
  }
  EXPECT_TRUE(client.close());

  std::vector<Synopsis> received;
  std::vector<Synopsis> chunk;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    chunk.clear();
    channel.drain(chunk);
    server.ack(chunk.size());
    received.insert(received.end(), chunk.begin(), chunk.end());
    if (server.sessions_finished() > 0 && server.active_connections() == 0 &&
        server.drained() && received.size() >= stream.size())
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  chunk.clear();
  channel.drain(chunk);
  server.ack(chunk.size());
  received.insert(received.end(), chunk.begin(), chunk.end());
  if (stats_out) *stats_out = server.stats();
  return received;
}

/// Replays `stream` through an AnomalyDetector with a mid-stream advance_to
/// plus a finish (the way Monitor::poll drives it) and dumps the verdicts.
std::string run_detector(const OutlierModel& model,
                         const std::vector<Synopsis>& stream) {
  DetectorConfig config;
  config.window = sec(5);
  AnomalyDetector detector(&model, config);
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) detector.ingest(stream[i]);
  std::string out = dump(detector.advance_to(stream[half].start));
  for (std::size_t i = half; i < stream.size(); ++i)
    detector.ingest(stream[i]);
  out += dump(detector.finish());
  return out;
}

TEST(NetEndToEnd, LoopbackDeliveryIsBitIdenticalAndOrdered) {
  const auto stream = make_trace(21, 5000, 0.05, 0.08);
  SynopsisServer::Stats stats;
  const auto received = loopback_roundtrip(stream, &stats);

  ASSERT_EQ(received.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    std::vector<std::uint8_t> sent_bytes, recv_bytes;
    core::encode_synopsis(stream[i], sent_bytes);
    core::encode_synopsis(received[i], recv_bytes);
    ASSERT_EQ(sent_bytes, recv_bytes) << "synopsis " << i << " diverged";
  }

  EXPECT_EQ(stats.synopses, stream.size());
  EXPECT_EQ(stats.published, stream.size());
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_EQ(stats.goodbyes, 1u);
  EXPECT_EQ(stats.goodbye_mismatches, 0u);
  EXPECT_EQ(stats.crc_rejects, 0u);
  EXPECT_EQ(stats.magic_rejects, 0u);
  EXPECT_EQ(stats.frame_rejects, 0u);
  EXPECT_EQ(stats.payload_rejects, 0u);
  EXPECT_EQ(stats.truncated, 0u);
  EXPECT_EQ(stats.shed_batches, 0u);
  EXPECT_EQ(stats.shed_synopses, 0u);
}

TEST(NetEndToEnd, VerdictsMatchInProcessDetect) {
  const auto training = make_trace(11, 20000, 0.002, 0.005);
  const auto model = OutlierModel::train(training);
  // Elevated rare-signature and stretched-duration rates so both the flow
  // and the performance tests fire — an empty golden would be vacuous.
  const auto stream = make_trace(12, 20000, 0.05, 0.08);

  const std::string in_process = run_detector(model, stream);
  ASSERT_FALSE(in_process.empty())
      << "workload produced no anomalies — the golden comparison is vacuous";

  SynopsisServer::Stats stats;
  const auto received = loopback_roundtrip(stream, &stats);
  ASSERT_EQ(received.size(), stream.size());
  EXPECT_EQ(stats.shed_synopses, 0u);

  EXPECT_EQ(run_detector(model, received), in_process);
}

}  // namespace
}  // namespace saad::net
