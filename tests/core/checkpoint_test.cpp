// Warm-restart checkpoint suite (core/checkpoint.h):
//  * codec round-trips, and strict all-or-nothing rejection of every
//    truncation and every byte-level corruption of an encoded checkpoint;
//  * CheckpointDir newest-valid fallback — a torn newest file falls back to
//    the previous checkpoint, counted in saad_checkpoint_corrupt_total;
//  * detector state canonicality: save -> restore -> save round-trips
//    bit-identically, and a malformed state leaves the detector unchanged.
// Resuming a checkpoint mid-stream and hot model swaps are LiveAnalyzer's,
// and tests/core/live_analyzer_test.cpp covers them.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/log_registry.h"
#include "obs/metrics.h"
#include "testutil/synthetic_stream.h"
#include "testutil/temp_dir.h"

namespace saad::core {
namespace {

// ---- Shared fixtures ------------------------------------------------------

using testutil::dump;
using testutil::make_trace;

std::vector<Anomaly> sample_anomalies() {
  std::vector<Anomaly> anomalies;
  Anomaly a;
  a.window = 7;
  a.window_start = sec(420);
  a.host = 3;
  a.stage = 11;
  a.kind = AnomalyKind::kFlow;
  a.due_to_new_signature = true;
  a.p_value = 0.00012345678901234567;
  a.proportion = 0.25;
  a.train_proportion = 0.001953125;
  a.n = 1024;
  a.outliers = 256;
  a.example_signature = Signature(std::vector<LogPointId>{88, 89, 95});
  anomalies.push_back(a);
  Anomaly b;
  b.window = 9;
  b.window_start = sec(540);
  b.host = 0;
  b.stage = 2;
  b.kind = AnomalyKind::kPerformance;
  b.p_value = 1.0;
  b.n = 17;
  anomalies.push_back(b);  // empty example signature is representable
  return anomalies;
}

Checkpoint sample_checkpoint() {
  Checkpoint c;
  c.sequence = 42;
  c.model_epoch = 3;
  c.window = sec(60);
  c.threads = 4;
  c.ingested = 123456;
  c.published = 123460;
  c.acked = 123456;
  const auto model = OutlierModel::train(make_trace(5, 2000, 0.002, 0.005));
  model.save(c.model);
  LogRegistry registry;
  const auto stage = registry.register_stage("Handler");
  registry.register_log_point(stage, Level::kInfo, "hello");
  registry.save(c.registry);
  AnomalyDetector detector(&model, {});
  for (const auto& s : make_trace(6, 500, 0.01, 0.01)) detector.ingest(s);
  detector.save_state(c.analyzer);
  c.anomalies = sample_anomalies();
  return c;
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(f)),
                                   std::istreambuf_iterator<char>());
}

// ---- Codec ----------------------------------------------------------------

TEST(CheckpointCodec, AnomalyListRoundTrips) {
  const auto anomalies = sample_anomalies();
  std::vector<std::uint8_t> bytes;
  encode_anomalies(anomalies, bytes);
  std::vector<Anomaly> decoded;
  ASSERT_TRUE(decode_anomalies(bytes, decoded));
  EXPECT_EQ(dump(decoded), dump(anomalies));

  std::vector<Anomaly> none;
  std::vector<std::uint8_t> empty_bytes;
  encode_anomalies(none, empty_bytes);
  ASSERT_TRUE(decode_anomalies(empty_bytes, decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(CheckpointCodec, CheckpointRoundTrips) {
  const Checkpoint c = sample_checkpoint();
  std::vector<std::uint8_t> bytes;
  encode_checkpoint(c, bytes);
  const auto decoded = decode_checkpoint(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sequence, c.sequence);
  EXPECT_EQ(decoded->model_epoch, c.model_epoch);
  EXPECT_EQ(decoded->window, c.window);
  EXPECT_EQ(decoded->threads, c.threads);
  EXPECT_EQ(decoded->ingested, c.ingested);
  EXPECT_EQ(decoded->published, c.published);
  EXPECT_EQ(decoded->acked, c.acked);
  EXPECT_EQ(decoded->model, c.model);
  EXPECT_EQ(decoded->registry, c.registry);
  EXPECT_EQ(decoded->analyzer, c.analyzer);
  EXPECT_EQ(dump(decoded->anomalies), dump(c.anomalies));
}

TEST(CheckpointCodec, EveryTruncationIsRejected) {
  // All-or-nothing validation: a prefix cut at *any* byte — mid-magic,
  // mid-header, mid-payload, or right before the end marker — must decode
  // to nullopt, never to a partial checkpoint.
  const Checkpoint c = sample_checkpoint();
  std::vector<std::uint8_t> bytes;
  encode_checkpoint(c, bytes);
  ASSERT_TRUE(decode_checkpoint(bytes).has_value());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_FALSE(decode_checkpoint(prefix).has_value()) << "cut=" << cut;
  }
}

TEST(CheckpointCodec, EveryByteCorruptionIsRejected) {
  // CRC32C catches any single corrupted byte in any section (and the magic
  // check catches the prologue).
  const Checkpoint c = sample_checkpoint();
  std::vector<std::uint8_t> bytes;
  encode_checkpoint(c, bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto mutated = bytes;
    mutated[i] ^= 0xFF;
    EXPECT_FALSE(decode_checkpoint(mutated).has_value()) << "byte=" << i;
  }
}

TEST(CheckpointCodec, TrailingBytesAreRejected) {
  const Checkpoint c = sample_checkpoint();
  std::vector<std::uint8_t> bytes;
  encode_checkpoint(c, bytes);
  bytes.push_back(0);
  EXPECT_FALSE(decode_checkpoint(bytes).has_value());
}

// ---- CheckpointDir --------------------------------------------------------

TEST(CheckpointDir, WriteLoadAndPrune) {
  testutil::TempDir tmp;
  CheckpointDir dir(tmp.path("ckpts"));
  ASSERT_TRUE(dir.ensure());
  EXPECT_EQ(dir.max_sequence(), 0u);
  EXPECT_FALSE(dir.load_latest().has_value());

  Checkpoint c = sample_checkpoint();
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    c.sequence = seq;
    c.ingested = seq * 100;
    ASSERT_TRUE(dir.write(c, /*keep=*/4));
  }
  EXPECT_EQ(dir.max_sequence(), 6u);
  const auto latest = dir.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->sequence, 6u);
  EXPECT_EQ(latest->ingested, 600u);
  // Retention kept exactly the 4 newest.
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    const bool expect_present = seq >= 3;
    EXPECT_EQ(std::ifstream(dir.path_for(seq)).good(), expect_present)
        << "seq=" << seq;
  }
}

TEST(CheckpointDir, RetentionOverTornFilesAndRestartNumbering) {
  testutil::TempDir tmp;
  const std::string path = tmp.path("ckpts");
  // Two torn files and a stale temp file from an earlier run.
  {
    CheckpointDir earlier(path);
    ASSERT_TRUE(earlier.ensure());
    write_bytes(earlier.path_for(1), {'S', 'A', 'A'});
    write_bytes(earlier.path_for(2), {});
    write_bytes(earlier.path_for(50) + ".tmp", {'S'});
  }
  CheckpointDir dir(path);
  ASSERT_TRUE(dir.ensure());
  EXPECT_EQ(dir.max_sequence(), 2u);

  Checkpoint c = sample_checkpoint();
  constexpr std::size_t kKeep = 3;
  for (std::uint64_t seq = dir.max_sequence() + 1; seq <= 9; ++seq) {
    c.sequence = seq;
    c.ingested = seq * 10;
    ASSERT_TRUE(dir.write(c, kKeep));
    // After every write the directory holds exactly the kKeep newest
    // checkpoint files (the stale .tmp is no checkpoint and stays).
    std::vector<std::string> present;
    for (const auto& entry : std::filesystem::directory_iterator(path))
      present.push_back(entry.path().filename().string());
    std::sort(present.begin(), present.end());
    std::vector<std::string> expected;
    for (std::uint64_t s = seq + 1 > kKeep ? seq + 1 - kKeep : 1; s <= seq; ++s)
      expected.push_back(
          std::filesystem::path(dir.path_for(s)).filename().string());
    expected.push_back(
        std::filesystem::path(dir.path_for(50)).filename().string() + ".tmp");
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(present, expected) << "after writing " << seq;
  }
  EXPECT_EQ(dir.max_sequence(), 9u);

  // A restart lists the directory again and continues the numbering.
  CheckpointDir restarted(path);
  EXPECT_EQ(restarted.max_sequence(), 9u);
  std::size_t skipped = 0;
  const auto latest = restarted.load_latest(&skipped);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->sequence, 9u);
  EXPECT_EQ(latest->ingested, 90u);
  EXPECT_EQ(skipped, 0u);
  c.sequence = restarted.max_sequence() + 1;
  ASSERT_TRUE(restarted.write(c, kKeep));
  EXPECT_FALSE(std::ifstream(restarted.path_for(7)).good());
  EXPECT_TRUE(std::ifstream(restarted.path_for(10)).good());
}

TEST(CheckpointDir, TornNewestFallsBackToPreviousLoudly) {
  testutil::TempDir tmp;
  CheckpointDir dir(tmp.path("ckpts"));
  ASSERT_TRUE(dir.ensure());

  Checkpoint c = sample_checkpoint();
  c.sequence = 1;
  c.ingested = 1000;
  ASSERT_TRUE(dir.write(c));
  c.sequence = 2;
  c.ingested = 2000;
  ASSERT_TRUE(dir.write(c));
  const auto intact = read_bytes(dir.path_for(2));
  ASSERT_FALSE(intact.empty());

  auto& corrupt_total = obs::MetricsRegistry::global().counter(
      "saad_checkpoint_corrupt_total",
      "Checkpoint candidates rejected as torn or corrupt during "
      "newest-valid fallback.");

  // Tear the newest file at a spread of boundaries (empty file, mid-magic,
  // mid-section-header, mid-payload, just short of the end marker): every
  // tear falls back to checkpoint 1 and counts exactly one corrupt skip.
  for (std::size_t cut = 0; cut < intact.size();
       cut += (cut < 32 ? 1 : 7)) {
    write_bytes(dir.path_for(2),
                {intact.begin(),
                 intact.begin() + static_cast<std::ptrdiff_t>(cut)});
    const std::uint64_t before = corrupt_total.value();
    std::size_t skipped = 0;
    const auto fallback = dir.load_latest(&skipped);
    ASSERT_TRUE(fallback.has_value()) << "cut=" << cut;
    EXPECT_EQ(fallback->sequence, 1u) << "cut=" << cut;
    EXPECT_EQ(fallback->ingested, 1000u) << "cut=" << cut;
    EXPECT_EQ(skipped, 1u) << "cut=" << cut;
    if (obs::kMetricsEnabled) {
      EXPECT_EQ(corrupt_total.value(), before + 1) << "cut=" << cut;
    }
  }

  // Restore the intact file: no skip, newest wins again.
  write_bytes(dir.path_for(2), intact);
  std::size_t skipped = 0;
  const auto latest = dir.load_latest(&skipped);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->sequence, 2u);
  EXPECT_EQ(skipped, 0u);

  // Both torn: nothing to restore, both counted.
  write_bytes(dir.path_for(1), {intact.begin(), intact.begin() + 3});
  write_bytes(dir.path_for(2), {});
  EXPECT_FALSE(dir.load_latest(&skipped).has_value());
  EXPECT_EQ(skipped, 2u);
  // max_sequence still sees the (torn) files: resume numbering never reuses
  // a sequence, even one whose file failed validation.
  EXPECT_EQ(dir.max_sequence(), 2u);
}

// ---- Detector state -------------------------------------------------------

TEST(DetectorState, SaveRestoreRoundTripsCanonically) {
  const auto model = OutlierModel::train(make_trace(11, 20000, 0.002, 0.005));
  const auto stream = make_trace(12, 8000, 0.05, 0.08);
  DetectorConfig config;
  config.window = sec(5);

  AnomalyDetector original(&model, config);
  for (const auto& s : stream) original.ingest(s);
  std::vector<std::uint8_t> saved;
  original.save_state(saved);

  AnomalyDetector restored(&model, config);
  ASSERT_TRUE(restored.restore_state(saved));
  std::vector<std::uint8_t> resaved;
  restored.save_state(resaved);
  EXPECT_EQ(resaved, saved);  // canonical: equal state -> equal bytes

  EXPECT_EQ(dump(restored.finish()), dump(original.finish()));
}

TEST(DetectorState, MalformedInputLeavesDetectorUnchanged) {
  const auto model = OutlierModel::train({});
  AnomalyDetector detector(&model, {});
  for (const auto& s : make_trace(3, 200, 0.01, 0.01)) detector.ingest(s);
  std::vector<std::uint8_t> saved;
  detector.save_state(saved);

  for (std::size_t cut = 0; cut + 1 < saved.size(); cut += 3) {
    AnomalyDetector victim(&model, {});
    const std::span<const std::uint8_t> prefix(saved.data(), cut);
    if (victim.restore_state(prefix)) continue;  // a valid shorter encoding
    std::vector<std::uint8_t> untouched;
    victim.save_state(untouched);
    AnomalyDetector fresh(&model, {});
    std::vector<std::uint8_t> fresh_bytes;
    fresh.save_state(fresh_bytes);
    EXPECT_EQ(untouched, fresh_bytes) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace saad::core
