// LiveAnalyzer, the engine behind `saad_offline detect` and `serve`, driven
// in process on the checkpoint suite's seeded stream:
//  * capture at a mid-stream close, resume a fresh engine from the encoded
//    checkpoint and continue: verdicts, ingested count and the final capture
//    equal an uninterrupted run's (the in-process twin of the
//    saad_offline_crash_restart_t1 acceptance test);
//  * a model staged mid-window applies at the next close, captures carry
//    the bytes of the model that is applied, and the verdicts change;
//  * a resumed engine continues the checkpoint's model epoch, and its
//    `[stats]` lines count the synopses the checkpoint's open windows hold;
//  * a checkpoint that does not fit is refused, saying why;
//  * an engine with no sink closes windows as the stream passes them, so
//    its state stays bounded, with the verdicts of a detector that holds
//    every window until finish();
//  * the close rule runs after every synopsis, so a synopsis that arrives
//    more than two windows late lands in the same window whether the stream
//    comes one synopsis, 64 or all at once per ingest() call;
//  * a close passes windows no synopsis opened, so a synopsis late for one
//    lands in the oldest open window, its verdict shows in that window's
//    `[stats]` line, and a resumed engine prints no `[stats]` line twice;
//  * next_close_at() is the end time whose ingest closes the next window,
//    on a fresh engine and after a resume (serve waits on it).
#include "core/live_analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "testutil/synthetic_stream.h"

namespace saad::core {
namespace {

using testutil::dump;
using testutil::make_trace;

constexpr std::size_t kBatch = 64;

std::vector<std::uint8_t> encode(const Checkpoint& c) {
  std::vector<std::uint8_t> out;
  encode_checkpoint(c, out);
  return out;
}

/// What `file` holds from byte `offset` on.
std::string read_from(std::FILE* file, long offset) {
  std::string out;
  std::fseek(file, offset, SEEK_SET);
  for (int c; (c = std::fgetc(file)) != EOF;)
    out.push_back(static_cast<char>(c));
  return out;
}

class LiveAnalyzerTest : public ::testing::Test {
 protected:
  LiveAnalyzerTest() : stream(make_trace(12, 12000, 0.05, 0.08)) {
    OutlierModel::train(make_trace(11, 20000, 0.002, 0.005)).save(model_a);
    OutlierModel::train(make_trace(21, 20000, 0.02, 0.03)).save(model_b);
    LogRegistry registry;
    const StageId stage = registry.register_stage("Handler");
    registry.register_log_point(stage, Level::kInfo, "recv %");
    registry.save(registry_bytes);
  }
  ~LiveAnalyzerTest() override { std::fclose(stats); }

  /// An engine over `model_bytes` at 1 s windows that writes `[stats]`
  /// lines to `sink`, if any. It closes windows as the stream passes them:
  /// about every 1400 synopses of the 8.4 s stream.
  std::unique_ptr<LiveAnalyzer> make_engine(
      const std::vector<std::uint8_t>& model_bytes, std::FILE* sink) const {
    LiveAnalyzer::Options options;
    options.config.window = sec(1);
    options.stats = sink;
    auto model = OutlierModel::load(model_bytes);
    EXPECT_TRUE(model.has_value());
    return std::make_unique<LiveAnalyzer>(std::move(*model), model_bytes,
                                          std::move(options));
  }
  std::unique_ptr<LiveAnalyzer> make_engine(
      const std::vector<std::uint8_t>& model_bytes) const {
    return make_engine(model_bytes, stats);
  }

  /// The kBatch-sized batch starting at synopsis `i`.
  std::span<const Synopsis> batch(std::size_t i) const {
    return std::span(stream).subspan(i, std::min(kBatch, stream.size() - i));
  }

  /// Ingests batches until a window closes; the index after the last batch.
  std::size_t ingest_through_close(LiveAnalyzer& engine, std::size_t i) const {
    const auto& closes = engine.status().close_barriers;
    for (const std::uint64_t before = closes.load();
         i < stream.size() && closes.load() == before; i += kBatch) {
      engine.ingest(batch(i));
    }
    return i;
  }

  std::vector<Synopsis> stream;
  std::vector<std::uint8_t> model_a, model_b, registry_bytes;
  std::FILE* stats = std::tmpfile();
};

TEST_F(LiveAnalyzerTest, ResumeFromMidStreamCaptureMatchesUninterruptedRun) {
  // Uninterrupted: capture at the first close past the middle of the stream.
  auto golden = make_engine(model_a);
  ASSERT_TRUE(golden->load_registry(registry_bytes));
  std::size_t i = 0;
  while (i < stream.size() / 2) i = ingest_through_close(*golden, i);
  const std::size_t cut = i;
  const std::uint64_t closes_at_cut = golden->status().close_barriers.load();
  const std::int64_t watermark_at_cut = golden->status().watermark_us.load();
  const Checkpoint mid = golden->capture();
  ASSERT_FALSE(mid.anomalies.empty());  // verdicts ride in the checkpoint
  for (; i < stream.size(); i += kBatch) golden->ingest(batch(i));
  const auto golden_open = encode(golden->capture());
  golden->finish();

  // Crash right after that close. A fresh engine, built over another model
  // and no registry, takes both from the checkpoint and continues.
  const auto decoded = decode_checkpoint(encode(mid));
  ASSERT_TRUE(decoded.has_value());
  auto resumed = make_engine(model_b);
  ASSERT_EQ(resumed->resume(*decoded), nullptr);
  EXPECT_EQ(resumed->ingested(), cut);
  EXPECT_EQ(resumed->status().ingested.load(), cut);
  EXPECT_EQ(resumed->status().verdicts.load(), mid.anomalies.size());
  EXPECT_GT(resumed->status().watermark_us.load(), 0);  // /readyz, /statusz
  EXPECT_EQ(resumed->status().watermark_us.load() / sec(1),
            watermark_at_cut / sec(1));
  for (i = cut; i < stream.size(); i += kBatch) resumed->ingest(batch(i));
  EXPECT_EQ(encode(resumed->capture()), golden_open);  // open windows too
  EXPECT_EQ(resumed->status().close_barriers.load(),  // same close points
            golden->status().close_barriers.load() - closes_at_cut);
  resumed->finish();

  EXPECT_EQ(dump(resumed->verdicts()), dump(golden->verdicts()));
  EXPECT_EQ(resumed->ingested(), golden->ingested());
  EXPECT_EQ(resumed->ingested(), stream.size());
  EXPECT_EQ(encode(resumed->capture()), encode(golden->capture()));
  EXPECT_GT(golden->verdicts().size(), mid.anomalies.size());
}

TEST_F(LiveAnalyzerTest, StagedModelAppliesAtTheNextClose) {
  auto engine = make_engine(model_a);
  std::size_t i = ingest_through_close(*engine, 0);
  engine->ingest(batch(i));  // mid-window
  i += kBatch;
  const OutlierModel* staged = engine->stage_model(model_b);
  ASSERT_NE(staged, nullptr);
  EXPECT_GT(staged->num_stages(), 0u);

  // Until the next close, the old model is the one checkpoints carry.
  const std::uint64_t closes = engine->status().close_barriers.load();
  for (; engine->status().close_barriers.load() == closes; i += kBatch) {
    const Checkpoint before = engine->capture();
    EXPECT_EQ(before.model, model_a);
    EXPECT_EQ(before.model_epoch, 0u);
    EXPECT_EQ(engine->status().model_epoch.load(), 0u);
    ASSERT_LT(i, stream.size());
    engine->ingest(batch(i));
  }
  EXPECT_EQ(engine->status().model_epoch.load(), 1u);
  EXPECT_EQ(engine->capture().model, model_b);
  EXPECT_EQ(engine->capture().model_epoch, 1u);

  // Bytes that are not a model stage nothing.
  EXPECT_EQ(engine->stage_model({1, 2, 3}), nullptr);
  for (; i < stream.size(); i += kBatch) engine->ingest(batch(i));
  engine->finish();
  EXPECT_EQ(engine->capture().model_epoch, 1u);
  EXPECT_EQ(engine->capture().model, model_b);

  // The swap is observable: model B was trained noisier, so the windows
  // after it test against other baselines than the same stream under A.
  auto unswapped = make_engine(model_a, nullptr);
  for (i = 0; i < stream.size(); i += kBatch) unswapped->ingest(batch(i));
  unswapped->finish();
  ASSERT_FALSE(engine->verdicts().empty());
  EXPECT_NE(dump(engine->verdicts()), dump(unswapped->verdicts()));
}

TEST_F(LiveAnalyzerTest, ResumeContinuesTheCheckpointModelEpoch) {
  auto first = make_engine(model_a);
  const std::size_t cut = ingest_through_close(*first, 0);
  Checkpoint c = first->capture();
  c.model_epoch = 3;

  auto resumed = make_engine(model_a);
  ASSERT_EQ(resumed->resume(c), nullptr);
  EXPECT_EQ(resumed->status().model_epoch.load(), 3u);
  EXPECT_EQ(resumed->capture().model_epoch, 3u);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(obs::MetricsRegistry::global()
                  .gauge("saad_analyzer_model_epoch", "")
                  .value(),
              3);
  }

  ASSERT_NE(resumed->stage_model(model_b), nullptr);
  ingest_through_close(*resumed, cut);
  EXPECT_EQ(resumed->status().model_epoch.load(), 4u);
  EXPECT_EQ(resumed->capture().model_epoch, 4u);
}

TEST_F(LiveAnalyzerTest, StatsAfterResumeMatchUninterruptedRun) {
  std::FILE* golden_stats = std::tmpfile();
  std::FILE* resumed_stats = std::tmpfile();
  auto golden = make_engine(model_a, golden_stats);
  std::size_t i = 0;
  while (i < stream.size() / 2) i = ingest_through_close(*golden, i);
  const std::size_t cut = i;
  const Checkpoint mid = golden->capture();
  const long printed_at_cut = std::ftell(golden_stats);
  for (; i < stream.size(); i += kBatch) golden->ingest(batch(i));
  golden->finish();

  // The windows open at the checkpoint print the synopses they held before
  // it too, as the uninterrupted run's lines do.
  const auto decoded = decode_checkpoint(encode(mid));
  ASSERT_TRUE(decoded.has_value());
  auto resumed = make_engine(model_a, resumed_stats);
  ASSERT_EQ(resumed->resume(*decoded), nullptr);
  for (i = cut; i < stream.size(); i += kBatch) resumed->ingest(batch(i));
  resumed->finish();

  const std::string after_cut = read_from(golden_stats, printed_at_cut);
  EXPECT_NE(after_cut.find("[stats] window"), std::string::npos);
  EXPECT_EQ(read_from(resumed_stats, 0), after_cut);
  std::fclose(golden_stats);
  std::fclose(resumed_stats);
}

TEST_F(LiveAnalyzerTest, EngineWithoutASinkClosesAsItGoesInBoundedState) {
  // 50 one-second windows; the last synopsis starts just before 50 s.
  const auto long_stream = make_trace(13, 71429, 0.05, 0.08);
  auto bare = make_engine(model_a, nullptr);
  auto with_stats = make_engine(model_a);
  std::size_t state_after_fifth = 0;
  for (std::size_t i = 0; i < long_stream.size(); i += kBatch) {
    const auto b = std::span(long_stream)
                       .subspan(i, std::min(kBatch, long_stream.size() - i));
    bare->ingest(b);
    with_stats->ingest(b);
    if (state_after_fifth == 0 && b.back().start >= sec(5)) {
      EXPECT_GT(bare->status().close_barriers.load(), 0u);
      state_after_fifth = bare->capture().analyzer.size();
    }
  }
  EXPECT_GE(bare->status().close_barriers.load(), 45u);
  EXPECT_EQ(bare->status().close_barriers.load(),
            with_stats->status().close_barriers.load());
  const std::size_t state_at_end = bare->capture().analyzer.size();
  EXPECT_LE(state_at_end, state_after_fifth + state_after_fifth / 4);
  bare->finish();
  with_stats->finish();

  auto model = OutlierModel::load(model_a);
  ASSERT_TRUE(model.has_value());
  DetectorConfig config;
  config.window = sec(1);
  AnomalyDetector all_at_once(&*model, config);
  for (const Synopsis& s : long_stream) all_at_once.ingest(s);
  const std::string expected = dump(all_at_once.finish());
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(dump(bare->verdicts()), expected);
  EXPECT_EQ(dump(with_stats->verdicts()), expected);
}

TEST_F(LiveAnalyzerTest, VerdictsDoNotDependOnBatchBoundaries) {
  // Three records after the watermark first reaches 5 s, the point where
  // window 2 closes, a task that started in window 2 ends with a log point
  // no model has seen.
  std::vector<Synopsis> late_stream = stream;
  UsTime watermark = 0;
  std::size_t at = 0;
  while (watermark < sec(5)) {
    watermark = std::max(watermark, late_stream[at].start +
                                        late_stream[at].duration);
    ++at;
  }
  Synopsis late;
  late.host = 0;
  late.stage = 3;
  late.start = ms(2500);
  late.duration = ms(5010) - late.start;
  late.log_points = {{24, 1}, {999, 1}};
  late_stream.insert(late_stream.begin() + static_cast<std::ptrdiff_t>(at + 2),
                     late);

  const auto verdicts_in_batches_of = [&](std::size_t n) {
    auto engine = make_engine(model_a, nullptr);
    SynopsisBatch batch;
    for (std::size_t i = 0; i < late_stream.size(); i += n) {
      batch.clear();
      for (std::size_t j = i; j < std::min(i + n, late_stream.size()); ++j)
        batch.append(late_stream[j]);
      engine->ingest(batch);
    }
    engine->finish();
    return engine->verdicts();
  };
  const auto one_at_a_time = verdicts_in_batches_of(1);
  // Window 2 had closed when the late task arrived, so it counts in the
  // oldest open window, 3, as it does when `detect` reads it.
  const auto flagged = std::find_if(
      one_at_a_time.begin(), one_at_a_time.end(), [](const Anomaly& a) {
        return a.due_to_new_signature && a.host == 0 && a.stage == 3 &&
               a.example_signature.contains(999);
      });
  ASSERT_NE(flagged, one_at_a_time.end());
  EXPECT_EQ(flagged->window, 3u);
  EXPECT_EQ(dump(verdicts_in_batches_of(kBatch)), dump(one_at_a_time));
  EXPECT_EQ(dump(verdicts_in_batches_of(late_stream.size())),
            dump(one_at_a_time));
}

TEST_F(LiveAnalyzerTest, LateSynopsisCannotReopenAWindowNoSynopsisOpened) {
  // At 1 s windows: A opens window 0, and B's end closes windows 0-2, of
  // which only 0 held a synopsis. C started in window 1 but ends at 5.7 s
  // with a point no model knows, and D's end closes window 3.
  const auto synopsis = [](UsTime start, UsTime end, LogPointId point) {
    Synopsis s;
    s.stage = 3;
    s.start = start;
    s.duration = end - start;
    s.log_points = {{24, 1}, {point, 1}};
    return s;
  };
  const std::vector<Synopsis> probe = {
      synopsis(ms(100), ms(102), 25), synopsis(ms(5500), ms(5502), 25),
      synopsis(ms(1500), ms(5700), 999), synopsis(ms(6500), ms(6502), 25)};
  auto& late = obs::MetricsRegistry::global().counter(
      "saad_detector_late_reattributed_total", "");
  const std::uint64_t late_before = late.value();
  auto engine = make_engine(model_a);
  engine->ingest(std::span(probe).first(2));
  const Checkpoint after_b = engine->capture();
  const std::int64_t watermark_after_b = engine->status().watermark_us.load();
  const long printed_after_b = std::ftell(stats);
  engine->ingest(std::span(probe).subspan(2));
  engine->finish();

  ASSERT_EQ(engine->verdicts().size(), 1u);
  EXPECT_TRUE(engine->verdicts()[0].due_to_new_signature);
  EXPECT_EQ(engine->verdicts()[0].window, 3u);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(late.value(), late_before + 1);
  }
  const std::string lines = read_from(stats, 0);
  std::size_t anomalies = 0;
  for (std::size_t at = 0; (at = lines.find("synopses, ", at)) != lines.npos;)
    anomalies += std::stoul(lines.substr(at += 10));
  EXPECT_EQ(anomalies, engine->verdicts().size());
  EXPECT_NE(lines.find("window   3 [  0.1,   0.1 min):      1 synopses, 1 "
                       "anomalies (1 flow, 0 performance)"),
            lines.npos)
      << lines;

  // A restart from the capture after B closes where the first run left off.
  std::FILE* resumed_stats = std::tmpfile();
  auto resumed = make_engine(model_a, resumed_stats);
  ASSERT_EQ(resumed->resume(after_b), nullptr);
  EXPECT_EQ(resumed->status().watermark_us.load() / sec(1),
            watermark_after_b / sec(1));
  resumed->ingest(std::span(probe).subspan(2));
  resumed->finish();
  EXPECT_EQ(read_from(resumed_stats, 0), read_from(stats, printed_after_b));
  EXPECT_EQ(dump(resumed->verdicts()), dump(engine->verdicts()));
  std::fclose(resumed_stats);
}

TEST_F(LiveAnalyzerTest, NextCloseAtIsTheEndThatClosesTheNextWindow) {
  // A synopsis that ends a microsecond before next_close_at() closes
  // nothing; the same synopsis a microsecond later closes the next window.
  const auto closes_exactly_there = [](LiveAnalyzer& engine) {
    const UsTime close_at = engine.next_close_at();
    const std::uint64_t closes = engine.status().close_barriers.load();
    Synopsis s;
    s.stage = 1;
    s.duration = ms(3);
    s.start = close_at - 1 - s.duration;
    engine.ingest(std::span(&s, 1));
    EXPECT_EQ(engine.status().close_barriers.load(), closes);
    EXPECT_EQ(engine.next_close_at(), close_at);
    ++s.start;
    engine.ingest(std::span(&s, 1));
    EXPECT_EQ(engine.status().close_barriers.load(), closes + 1);
    EXPECT_GT(engine.next_close_at(), close_at);
  };
  auto fresh = make_engine(model_a, nullptr);
  EXPECT_EQ(fresh->next_close_at(), sec(3));  // window 0 ends 2 windows back
  closes_exactly_there(*fresh);

  auto golden = make_engine(model_a, nullptr);
  for (std::size_t i = 0; i < stream.size() / 2;)
    i = ingest_through_close(*golden, i);
  const auto decoded = decode_checkpoint(encode(golden->capture()));
  ASSERT_TRUE(decoded.has_value());
  auto resumed = make_engine(model_b, nullptr);
  ASSERT_EQ(resumed->resume(*decoded), nullptr);
  EXPECT_GT(resumed->next_close_at(), sec(3));
  EXPECT_EQ(resumed->next_close_at(), golden->next_close_at());
  closes_exactly_there(*resumed);
}

TEST_F(LiveAnalyzerTest, CheckpointThatDoesNotFitIsRefused) {
  auto source = make_engine(model_a);
  ingest_through_close(*source, 0);
  const Checkpoint good = source->capture();
  const auto refuse = [&](const Checkpoint& c, const char* why) {
    EXPECT_STREQ(make_engine(model_b)->resume(c), why);
  };
  Checkpoint wide = good;
  wide.window = sec(2);
  refuse(wide, "checkpoint window differs from the analyzer's");
  Checkpoint bad_model = good;
  bad_model.model = {1, 2, 3};
  refuse(bad_model, "checkpoint model is malformed");
  Checkpoint bad_registry = good;
  bad_registry.registry = {1, 2, 3};
  refuse(bad_registry, "checkpoint registry is malformed");
  Checkpoint bad_state = good;
  bad_state.analyzer.push_back(0);  // trailing byte
  refuse(bad_state, "checkpoint analyzer state is malformed");
}

}  // namespace
}  // namespace saad::core
