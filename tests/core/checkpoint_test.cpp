// Warm-restart checkpoint suite (core/checkpoint.h):
//  * codec round-trips, and strict all-or-nothing rejection of every
//    truncation and every byte-level corruption of an encoded checkpoint;
//  * CheckpointDir newest-valid fallback — a torn newest file falls back to
//    the previous checkpoint, counted in saad_checkpoint_corrupt_total;
//  * detector state canonicality: save -> restore -> save round-trips
//    bit-identically, and save -> crash -> restore -> continue produces
//    verdicts byte-identical to an uninterrupted run;
//  * hot model swaps apply exactly at a window boundary.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/analyzer_pool.h"
#include "core/log_registry.h"
#include "core/monitor.h"
#include "core/varint.h"
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

// ---- Detector / analyzer state ---------------------------------------------

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

TEST(PoolState, ResumeMatchesUninterruptedAcrossThreadCounts) {
  const auto model = OutlierModel::train(make_trace(11, 20000, 0.002, 0.005));
  const auto stream = make_trace(12, 12000, 0.05, 0.08);
  const std::size_t half = stream.size() / 2;
  DetectorConfig config;
  // The 8.4s stream spans four 2s windows, so the mid-stream barrier at
  // ~4.2s has already closed two of them — the checkpoint carries a real
  // close cursor, not just open tallies.
  config.window = sec(2);

  // Golden: one uninterrupted run with a mid-stream close barrier.
  std::string golden;
  {
    AnalyzerPool pool(&model, config);
    for (std::size_t i = 0; i < half; ++i) pool.ingest(stream[i]);
    golden += dump(pool.advance_to(stream[half].start));
    for (std::size_t i = half; i < stream.size(); ++i) pool.ingest(stream[i]);
    golden += dump(pool.finish());
  }
  ASSERT_FALSE(golden.empty());

  // Crash after the mid-stream barrier, restore, continue: the combined
  // verdicts must be byte-identical.
  std::string combined;
  std::vector<std::uint8_t> saved;
  {
    AnalyzerPool pool(&model, config);
    for (std::size_t i = 0; i < half; ++i) pool.ingest(stream[i]);
    combined += dump(pool.advance_to(stream[half].start));
    pool.save_state(saved);
    // SIGKILL here: the analyzer is dropped without finish().
  }
  AnalyzerPool pool(&model, config);
  ASSERT_TRUE(pool.restore_state(saved));
  EXPECT_GT(pool.restored_next_window(), 0u);  // some windows already closed
  for (std::size_t i = half; i < stream.size(); ++i) pool.ingest(stream[i]);
  combined += dump(pool.finish());
  EXPECT_EQ(combined, golden);
}

TEST(PoolState, ModelSwapAppliesAtWindowBoundary) {
  const auto model_a =
      OutlierModel::train(make_trace(11, 20000, 0.002, 0.005));
  const auto model_b =
      OutlierModel::train(make_trace(21, 20000, 0.02, 0.03));
  const auto stream = make_trace(12, 12000, 0.05, 0.08);
  const std::size_t half = stream.size() / 2;
  DetectorConfig config;
  config.window = sec(5);

  AnalyzerPool pool(&model_a, config);
  std::string swapped;
  for (std::size_t i = 0; i < half; ++i) pool.ingest(stream[i]);
  // Staged mid-stream: nothing changes until the next boundary.
  pool.swap_model(&model_b);
  EXPECT_EQ(pool.model_epoch(), 0u);
  swapped += dump(pool.advance_to(stream[half].start));
  EXPECT_EQ(pool.model_epoch(), 1u);  // applied at the boundary
  for (std::size_t i = half; i < stream.size(); ++i) pool.ingest(stream[i]);
  swapped += dump(pool.finish());
  EXPECT_EQ(pool.model_epoch(), 1u);  // no re-apply without a new stage
  ASSERT_FALSE(swapped.empty());

  // The swap is observable: the same stream without it verdicts differently
  // (model B was trained noisier, so post-swap windows test against
  // different baselines).
  AnalyzerPool no_swap(&model_a, config);
  std::string unswapped;
  for (std::size_t i = 0; i < half; ++i) no_swap.ingest(stream[i]);
  unswapped += dump(no_swap.advance_to(stream[half].start));
  for (std::size_t i = half; i < stream.size(); ++i)
    no_swap.ingest(stream[i]);
  unswapped += dump(no_swap.finish());
  EXPECT_NE(unswapped, swapped);
}

// ---- Monitor --------------------------------------------------------------

class MonitorState : public ::testing::Test {
 protected:
  MonitorState()
      : stage(registry.register_stage("Handler")),
        lp_a(registry.register_log_point(stage, Level::kDebug, "recv")),
        lp_b(registry.register_log_point(stage, Level::kDebug, "done")),
        lp_rare(registry.register_log_point(stage, Level::kWarn, "retry")) {
    config.window = sec(10);
  }

  void run_schedule(Monitor& monitor, ManualClock& clock, std::uint64_t seed,
                    bool faulty, int tasks) {
    Rng rng(seed);
    for (int i = 0; i < tasks; ++i) {
      const auto host = static_cast<HostId>(rng.next_below(4));
      auto& tracker = monitor.tracker(host);
      auto task = tracker.begin_task(stage);
      task->on_log(lp_a, clock.now());
      if (faulty && rng.next_double() < 0.15) task->on_log(lp_rare, clock.now());
      UsTime d = ms(2 + static_cast<std::int64_t>(rng.next_below(5)));
      if (faulty && rng.next_double() < 0.2) d *= 30;
      clock.advance(d);
      task->on_log(lp_b, clock.now());
      tracker.end_task(std::move(task));
      clock.advance(ms(1));
    }
  }

  /// A model trained on a fault-free schedule.
  OutlierModel train() {
    ManualClock clock;
    Monitor trainer(&registry, &clock);
    trainer.start_training();
    run_schedule(trainer, clock, 77, /*faulty=*/false, 4000);
    trainer.train();
    return *trainer.model();
  }

  /// Restores `state` into a fresh monitor whose clock starts at `now`,
  /// saves it again into `resaved`, and runs the continuation schedule.
  std::string resume(std::span<const std::uint8_t> state, UsTime now,
                     std::vector<std::uint8_t>& resaved) {
    ManualClock clock;
    clock.advance(now);
    Monitor monitor(&registry, &clock);
    EXPECT_TRUE(monitor.restore_state(state));
    EXPECT_TRUE(monitor.save_state(resaved));
    run_schedule(monitor, clock, 901, /*faulty=*/true, 1500);
    std::string out = dump(monitor.poll(clock.now()));
    out += dump(monitor.finish());
    return out;
  }

  LogRegistry registry;
  StageId stage;
  LogPointId lp_a, lp_b, lp_rare;
  DetectorConfig config;
};

TEST_F(MonitorState, SaveRestoreResumesDetection) {
  // Arm, run the first half, and poll once.
  ManualClock clock_a;
  Monitor a(&registry, &clock_a);
  a.set_model(train());
  a.arm(config);
  run_schedule(a, clock_a, 900, /*faulty=*/true, 1500);
  const std::string head = dump(a.poll(clock_a.now()));
  std::vector<std::uint8_t> saved;
  ASSERT_TRUE(a.save_state(saved));
  const UsTime snapshot_now = clock_a.now();

  // Continue A to the end — the golden tail.
  run_schedule(a, clock_a, 901, /*faulty=*/true, 1500);
  std::string tail_a = dump(a.poll(clock_a.now()));
  tail_a += dump(a.finish());

  // B restores the snapshot, starts its clock at the snapshot time, and
  // replays the identical continuation schedule.
  std::vector<std::uint8_t> resaved;
  EXPECT_EQ(resume(saved, snapshot_now, resaved), tail_a);
  EXPECT_EQ(resaved, saved);  // canonical: equal state -> equal bytes
  ASSERT_FALSE((head + tail_a).empty());
}

TEST_F(MonitorState, ThreadCountFieldIsIgnoredOnRestore) {
  ManualClock clock_a;
  Monitor a(&registry, &clock_a);
  a.set_model(train());
  a.arm(config);
  run_schedule(a, clock_a, 900, /*faulty=*/true, 1500);
  a.poll(clock_a.now());
  std::vector<std::uint8_t> saved;
  ASSERT_TRUE(a.save_state(saved));

  // Find the thread-count varint: it follows the version, the model, and the
  // window, alpha, test kind, min_n, new-signature and bonferroni fields.
  std::span<const std::uint8_t> in(saved);
  std::uint64_t v = 0;
  double alpha = 0;
  ASSERT_TRUE(get_varint(in, v));  // version
  ASSERT_TRUE(get_varint(in, v) && v <= in.size());
  in = in.subspan(static_cast<std::size_t>(v));
  ASSERT_TRUE(get_varint(in, v) && get_double(in, alpha));
  for (int field = 0; field < 4; ++field) ASSERT_TRUE(get_varint(in, v));
  const std::size_t field_begin = saved.size() - in.size();
  ASSERT_TRUE(get_varint(in, v));
  EXPECT_EQ(v, 1u);  // the serial analyzer writes 1
  const std::size_t field_end = saved.size() - in.size();

  std::vector<std::uint8_t> resaved;
  const std::string golden = resume(saved, clock_a.now(), resaved);
  ASSERT_FALSE(golden.empty());

  // A monitor armed with 4 analyzer threads wrote 4 here; 1 << 20 must not
  // start a million of anything.
  for (const std::uint64_t threads : {std::uint64_t{4}, std::uint64_t{1} << 20}) {
    std::vector<std::uint8_t> state(saved.begin(), saved.begin() + field_begin);
    put_varint(threads, state);
    state.insert(state.end(), saved.begin() + field_end, saved.end());
    resaved.clear();
    EXPECT_EQ(resume(state, clock_a.now(), resaved), golden)
        << "threads=" << threads;
    EXPECT_EQ(resaved, saved) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace saad::core
