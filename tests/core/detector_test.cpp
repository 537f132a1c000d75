#include "core/detector.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/analyzer_pool.h"
#include "obs/metrics.h"

namespace saad::core {
namespace {

Synopsis make_synopsis(StageId stage, std::vector<LogPointId> points,
                       UsTime start, UsTime duration, HostId host = 0) {
  Synopsis s;
  s.host = host;
  s.stage = stage;
  s.start = start;
  s.duration = duration;
  std::sort(points.begin(), points.end());
  for (auto p : points) {
    if (!s.log_points.empty() && s.log_points.back().point == p) {
      s.log_points.back().count++;
    } else {
      s.log_points.push_back({p, 1});
    }
  }
  return s;
}

struct DetectorFixture : ::testing::Test {
  OutlierModel model;
  saad::Rng rng{42};

  void SetUp() override {
    std::vector<Synopsis> trace;
    // Stage 0: common flow {1,2,4}, rare-but-known flow {1,2,3,4} (~0.5%),
    // durations lognormal around 10ms.
    for (int i = 0; i < 40000; ++i) {
      const bool rare = rng.next_double() < 0.005;
      const UsTime d = static_cast<UsTime>(rng.lognormal_median(ms(10), 0.15));
      trace.push_back(make_synopsis(
          0, rare ? std::vector<LogPointId>{1, 2, 3, 4}
                  : std::vector<LogPointId>{1, 2, 4},
          0, d));
    }
    model = OutlierModel::train(trace);
  }

  /// Fills one window with `n` normal tasks starting in window `w`.
  void add_normal(AnomalyDetector& det, std::size_t w, int n,
                  HostId host = 0) {
    for (int i = 0; i < n; ++i) {
      const UsTime start = static_cast<UsTime>(w) * det.config().window +
                           static_cast<UsTime>(i);
      const UsTime d = static_cast<UsTime>(rng.lognormal_median(ms(10), 0.15));
      det.ingest(make_synopsis(0, {1, 2, 4}, start, d, host));
    }
  }
};

TEST_F(DetectorFixture, QuietWindowProducesNoAnomalies) {
  AnomalyDetector det(&model);
  add_normal(det, 0, 500);
  const auto anomalies = det.advance_to(minutes(1));
  EXPECT_TRUE(anomalies.empty());
}

TEST_F(DetectorFixture, NewSignatureRaisesImmediateFlowAnomaly) {
  AnomalyDetector det(&model);
  add_normal(det, 0, 500);
  det.ingest(make_synopsis(0, {1, 2}, ms(1), ms(1)));  // premature exit flow
  const auto anomalies = det.advance_to(minutes(1));
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, AnomalyKind::kFlow);
  EXPECT_TRUE(anomalies[0].due_to_new_signature);
  EXPECT_EQ(anomalies[0].example_signature, Signature({1, 2}));
}

TEST_F(DetectorFixture, SurgeOfRareKnownSignatureRaisesFlowAnomaly) {
  AnomalyDetector det(&model);
  add_normal(det, 0, 500);
  // 20% of the window uses the rare-but-known flow vs ~0.5% in training.
  for (int i = 0; i < 125; ++i)
    det.ingest(make_synopsis(0, {1, 2, 3, 4}, ms(2) + i, ms(10)));
  const auto anomalies = det.advance_to(minutes(1));
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, AnomalyKind::kFlow);
  EXPECT_FALSE(anomalies[0].due_to_new_signature);
  EXPECT_LT(anomalies[0].p_value, 0.001);
}

TEST_F(DetectorFixture, BaselineRateOfRareSignatureDoesNotAlarm) {
  AnomalyDetector det(&model);
  add_normal(det, 0, 2000);
  // ~0.5% rare flow, same as training: no flow anomaly.
  for (int i = 0; i < 10; ++i)
    det.ingest(make_synopsis(0, {1, 2, 3, 4}, ms(3) + i, ms(10)));
  const auto anomalies = det.advance_to(minutes(1));
  EXPECT_TRUE(anomalies.empty());
}

TEST_F(DetectorFixture, SlowdownRaisesPerformanceAnomaly) {
  AnomalyDetector det(&model);
  add_normal(det, 0, 300);
  // 100 tasks at 3x the normal duration: way past the p99 threshold.
  for (int i = 0; i < 100; ++i)
    det.ingest(make_synopsis(0, {1, 2, 4}, ms(5) + i, ms(30)));
  const auto anomalies = det.advance_to(minutes(1));
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, AnomalyKind::kPerformance);
  EXPECT_LT(anomalies[0].p_value, 0.001);
  EXPECT_EQ(anomalies[0].example_signature, Signature({1, 2, 4}));
}

TEST_F(DetectorFixture, AnomaliesAreLocalizedPerHost) {
  AnomalyDetector det(&model);
  add_normal(det, 0, 400, /*host=*/1);
  add_normal(det, 0, 400, /*host=*/2);
  for (int i = 0; i < 100; ++i)
    det.ingest(make_synopsis(0, {1, 2, 4}, ms(5) + i, ms(30), /*host=*/2));
  const auto anomalies = det.advance_to(minutes(1));
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].host, 2);
}

TEST_F(DetectorFixture, WindowsCloseInOrderWithTimestamps) {
  AnomalyDetector det(&model);
  add_normal(det, 0, 100);
  add_normal(det, 1, 100);
  det.ingest(make_synopsis(0, {1, 2}, minutes(1) + ms(1), ms(1)));
  EXPECT_TRUE(det.advance_to(minutes(1)).empty());  // window 0 quiet
  const auto anomalies = det.advance_to(minutes(2));
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].window, 1u);
  EXPECT_EQ(anomalies[0].window_start, minutes(1));
}

TEST_F(DetectorFixture, AdvanceToPartialWindowProducesNothing) {
  AnomalyDetector det(&model);
  det.ingest(make_synopsis(0, {1, 2}, ms(1), ms(1)));
  EXPECT_TRUE(det.advance_to(sec(30)).empty());  // window still open
  const auto anomalies = det.finish();
  ASSERT_EQ(anomalies.size(), 1u);
}

TEST_F(DetectorFixture, LateSynopsisLandsInOldestOpenWindow) {
  AnomalyDetector det(&model);
  add_normal(det, 0, 50);
  (void)det.advance_to(minutes(1));  // window 0 closed
  // A task that *started* in window 0 but finished late must still count —
  // it is attributed to the oldest open window rather than dropped.
  det.ingest(make_synopsis(0, {1, 2}, ms(5), ms(100)));
  const auto anomalies = det.advance_to(minutes(2));
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].window, 1u);
}

TEST_F(DetectorFixture, DisablingNewSignatureRule) {
  DetectorConfig config;
  config.new_signature_is_anomaly = false;
  AnomalyDetector det(&model, config);
  add_normal(det, 0, 5000);
  det.ingest(make_synopsis(0, {1, 2}, ms(1), ms(1)));
  // One new signature among 5001 tasks: the proportion test does not fire
  // at this rate and the categorical rule is off.
  const auto anomalies = det.advance_to(minutes(1));
  EXPECT_TRUE(anomalies.empty());
}

TEST_F(DetectorFixture, FlowAndPerfAnomaliesCanCoexist) {
  AnomalyDetector det(&model);
  add_normal(det, 0, 300);
  for (int i = 0; i < 80; ++i)
    det.ingest(make_synopsis(0, {1, 2}, ms(2) + i, ms(1)));  // new flow
  for (int i = 0; i < 80; ++i)
    det.ingest(make_synopsis(0, {1, 2, 4}, ms(5) + i, ms(40)));  // slow
  const auto anomalies = det.advance_to(minutes(1));
  ASSERT_EQ(anomalies.size(), 2u);
  EXPECT_NE(anomalies[0].kind, anomalies[1].kind);
}

TEST_F(DetectorFixture, IngestedCountTracksSynopses) {
  AnomalyDetector det(&model);
  add_normal(det, 0, 42);
  EXPECT_EQ(det.ingested(), 42u);
}

TEST_F(DetectorFixture, ReattributedAndUnknownStageSynopsesAreCounted) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metric increments compiled out";
  auto& registry = obs::MetricsRegistry::global();
  auto& late = registry.counter(
      "saad_detector_late_reattributed_total",
      "Synopses whose start window had already closed, counted in the "
      "oldest open window instead.");
  auto& unknown = registry.counter(
      "saad_detector_unknown_stage_total",
      "Synopses of a stage the model has never seen (each is a new flow).");
  // The same stream through the serial detector (a 1-thread pool runs it
  // inline) and 4 workers: the counts are per synopsis, so they match.
  for (const std::size_t threads : {1u, 4u}) {
    const std::uint64_t late_before = late.value();
    const std::uint64_t unknown_before = unknown.value();
    DetectorConfig config;
    config.analyzer_threads = threads;
    AnalyzerPool pool(&model, config);
    for (int i = 0; i < 50; ++i) {
      pool.ingest(make_synopsis(0, {1, 2, 4}, ms(i), ms(10),
                                static_cast<HostId>(i % 3)));
    }
    (void)pool.advance_to(minutes(1));
    // Three late tasks of window 0, two of a stage the model never saw, and
    // one that is both.
    for (int i = 0; i < 3; ++i) {
      pool.ingest(make_synopsis(0, {1, 2, 4}, ms(5), ms(100),
                                static_cast<HostId>(i)));
    }
    for (int i = 0; i < 2; ++i)
      pool.ingest(make_synopsis(7, {1}, minutes(1) + ms(i), ms(1)));
    pool.ingest(make_synopsis(7, {1}, ms(9), ms(1), /*host=*/2));
    const auto anomalies = pool.finish();
    EXPECT_EQ(late.value() - late_before, 4u) << "threads=" << threads;
    EXPECT_EQ(unknown.value() - unknown_before, 3u) << "threads=" << threads;
    ASSERT_FALSE(anomalies.empty());
    for (const auto& a : anomalies) EXPECT_EQ(a.window, 1u);
  }
}

}  // namespace
}  // namespace saad::core
