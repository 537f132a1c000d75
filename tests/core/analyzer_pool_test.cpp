// Determinism golden test for the parallel analyzer (analyzer_pool.h): the
// same trace analyzed with 1, 2, and 8 threads must yield *byte-identical*
// anomaly lists — same anomalies, same order, same p-values to the last bit.
#include "core/analyzer_pool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "core/log_registry.h"
#include "core/monitor.h"

namespace saad::core {
namespace {

/// Full-precision serialization: any drift in value, order, or count shows
/// up as a string diff.
std::string dump(const std::vector<Anomaly>& anomalies) {
  std::string out;
  char line[256];
  for (const auto& a : anomalies) {
    std::snprintf(line, sizeof line,
                  "w=%zu ws=%lld h=%u s=%u k=%d new=%d p=%.17g prop=%.17g "
                  "train=%.17g n=%llu out=%llu sig=%s\n",
                  a.window, static_cast<long long>(a.window_start), a.host,
                  a.stage, static_cast<int>(a.kind),
                  a.due_to_new_signature ? 1 : 0, a.p_value, a.proportion,
                  a.train_proportion,
                  static_cast<unsigned long long>(a.n),
                  static_cast<unsigned long long>(a.outliers),
                  a.example_signature.to_string().c_str());
    out += line;
  }
  return out;
}

Synopsis make(Rng& rng, UsTime start, double rare_rate, double slow_rate) {
  constexpr StageId kStages = 12;
  constexpr HostId kHosts = 6;
  Synopsis s;
  s.stage = static_cast<StageId>(rng.next_below(kStages));
  s.host = static_cast<HostId>(rng.next_below(kHosts));
  s.start = start;
  const auto base = static_cast<LogPointId>(s.stage * 8);
  s.log_points.push_back({base, 1});
  const auto variant = rng.next_below(3);
  for (std::uint64_t v = 0; v <= variant; ++v)
    s.log_points.push_back({static_cast<LogPointId>(base + 1 + v), 2});
  if (rng.next_double() < rare_rate)  // rare flow
    s.log_points.push_back({static_cast<LogPointId>(base + 7), 1});
  s.duration = 1000 + static_cast<UsTime>(rng.next_below(3000));
  if (rng.next_double() < slow_rate) s.duration *= 40;  // stretched duration
  return s;
}

std::vector<Synopsis> make_trace(std::uint64_t seed, std::size_t count,
                                 double rare_rate, double slow_rate) {
  Rng rng(seed);
  std::vector<Synopsis> trace;
  trace.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    trace.push_back(
        make(rng, static_cast<UsTime>(i) * 700, rare_rate, slow_rate));
  return trace;
}

struct PoolResult {
  std::string mid, tail;
};

/// Replays `stream` with a mid-stream advance_to plus a finish, the way
/// Monitor::poll drives it.
PoolResult run_pool(const OutlierModel& model, std::size_t threads,
                    const std::vector<Synopsis>& stream) {
  DetectorConfig config;
  config.window = sec(5);
  config.analyzer_threads = threads;
  AnalyzerPool pool(&model, config);
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) pool.ingest(stream[i]);
  PoolResult result;
  result.mid = dump(pool.advance_to(stream[half].start));
  for (std::size_t i = half; i < stream.size(); ++i) pool.ingest(stream[i]);
  result.tail = dump(pool.finish());
  return result;
}

TEST(AnalyzerPool, ThreadCountDoesNotChangeVerdicts) {
  const auto training = make_trace(11, 30000, 0.002, 0.005);
  const auto model = OutlierModel::train(training);
  // Elevated rare-signature and stretched-duration rates: both the flow and
  // the performance tests fire.
  const auto stream = make_trace(12, 30000, 0.05, 0.08);

  // Baseline: the bare serial detector, driven identically.
  DetectorConfig config;
  config.window = sec(5);
  AnomalyDetector detector(&model, config);
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) detector.ingest(stream[i]);
  const std::string serial_mid = dump(detector.advance_to(stream[half].start));
  for (std::size_t i = half; i < stream.size(); ++i) detector.ingest(stream[i]);
  const std::string serial_tail = dump(detector.finish());
  ASSERT_FALSE(serial_tail.empty()) << "workload produced no anomalies — "
                                       "the golden comparison is vacuous";

  for (std::size_t threads : {1u, 2u, 8u}) {
    const PoolResult result = run_pool(model, threads, stream);
    EXPECT_EQ(result.mid, serial_mid) << "threads=" << threads;
    EXPECT_EQ(result.tail, serial_tail) << "threads=" << threads;
  }
}

TEST(AnalyzerPool, LateSynopsesAreReattributedLikeSerialAfterABarrier) {
  // 32 hosts have traffic in window 0 and one host also in window 1; the
  // barrier closes both. Each host then reports a late never-seen flow that
  // started in window 1: the serial detector folds all 32 into window 2, the
  // oldest open window. A pool worker that held no window-1 traffic must do
  // the same, not reopen its own already-closed window 1.
  auto make_task = [](HostId host, std::vector<LogPointCount> points,
                      UsTime start) {
    Synopsis s;
    s.host = host;
    s.stage = 0;
    s.start = start;
    s.duration = ms(1);
    s.log_points = std::move(points);
    return s;
  };
  std::vector<Synopsis> training;
  for (int i = 0; i < 1000; ++i)
    training.push_back(make_task(static_cast<HostId>(i % 32), {{1, 1}, {2, 1}},
                                 static_cast<UsTime>(i) * 100));
  const auto model = OutlierModel::train(training);

  auto run = [&](std::size_t threads) {
    DetectorConfig config;
    config.window = sec(1);
    config.analyzer_threads = threads;
    AnalyzerPool pool(&model, config);
    for (HostId h = 0; h < 32; ++h)
      pool.ingest(make_task(h, {{1, 1}, {2, 1}}, ms(100) + h));
    pool.ingest(make_task(0, {{1, 1}, {2, 1}}, sec(1) + ms(100)));
    auto out = pool.advance_to(sec(2));
    for (HostId h = 0; h < 32; ++h)
      pool.ingest(make_task(h, {{1, 1}, {3, 1}}, sec(1) + ms(500)));
    const auto tail = pool.finish();
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
  };
  const auto serial = run(1);
  ASSERT_EQ(serial.size(), 32u);
  for (const auto& a : serial) {
    EXPECT_EQ(a.window, 2u);
    EXPECT_TRUE(a.due_to_new_signature);
  }
  EXPECT_EQ(dump(run(4)), dump(serial));
}

TEST(AnalyzerPool, SerialFallbacks) {
  const auto model = OutlierModel::train({});
  DetectorConfig config;
  config.analyzer_threads = 4;
  config.bonferroni = true;  // whole-window test count: unsupported in
                             // parallel, must fall back (analyzer_pool.h)
  AnalyzerPool pool(&model, config);
  EXPECT_EQ(pool.threads(), 1u);

  DetectorConfig serial;
  serial.analyzer_threads = 1;
  AnalyzerPool inline_pool(&model, serial);
  EXPECT_EQ(inline_pool.threads(), 1u);
}

TEST(AnalyzerPool, HardwareConcurrencyDefault) {
  const auto model = OutlierModel::train({});
  DetectorConfig config;
  config.analyzer_threads = 0;  // one per hardware thread
  AnalyzerPool pool(&model, config);
  EXPECT_GE(pool.threads(), 1u);
}

// ---- End-to-end through Monitor -------------------------------------------

struct PoolMonitorFixture : ::testing::Test {
  LogRegistry registry;
  StageId stage_a = kInvalidStage, stage_b = kInvalidStage;
  LogPointId a1 = 0, a2 = 0, a_rare = 0, b1 = 0, b2 = 0;

  void SetUp() override {
    stage_a = registry.register_stage("Handler");
    a1 = registry.register_log_point(stage_a, Level::kDebug, "recv");
    a2 = registry.register_log_point(stage_a, Level::kDebug, "done");
    a_rare = registry.register_log_point(stage_a, Level::kWarn, "retry");
    stage_b = registry.register_stage("Flusher");
    b1 = registry.register_log_point(stage_b, Level::kDebug, "flush-begin");
    b2 = registry.register_log_point(stage_b, Level::kDebug, "flush-end");
  }

  /// Fixed-seed schedule across two stages and four hosts; `faulty` adds
  /// rare signatures and stretched durations in the back half.
  void run_schedule(Monitor& monitor, ManualClock& clock, std::uint64_t seed,
                    bool faulty, int tasks) {
    Rng rng(seed);
    for (int i = 0; i < tasks; ++i) {
      const bool second_half = i > tasks / 2;
      const auto host = static_cast<HostId>(rng.next_below(4));
      auto& tracker = monitor.tracker(host);
      if (rng.next_double() < 0.7) {
        auto task = tracker.begin_task(stage_a);
        task->on_log(a1, clock.now());
        if (faulty && second_half && rng.next_double() < 0.2)
          task->on_log(a_rare, clock.now());
        clock.advance(ms(2 + static_cast<std::int64_t>(rng.next_below(5))));
        task->on_log(a2, clock.now());
        tracker.end_task(std::move(task));
      } else {
        auto task = tracker.begin_task(stage_b);
        task->on_log(b1, clock.now());
        UsTime d = ms(4 + static_cast<std::int64_t>(rng.next_below(4)));
        if (faulty && second_half && rng.next_double() < 0.3) d *= 30;
        clock.advance(d);
        task->on_log(b2, clock.now());
        tracker.end_task(std::move(task));
      }
      clock.advance(ms(1));
    }
  }

  /// Trains, arms with `threads`, replays the same faulty schedule, polling
  /// every so often, and returns the full anomaly dump.
  std::string run_detection(std::size_t threads) {
    ManualClock clock;
    Monitor monitor(&registry, &clock);
    monitor.start_training();
    run_schedule(monitor, clock, /*seed=*/77, /*faulty=*/false, 4000);
    monitor.train();

    DetectorConfig config;
    config.window = sec(10);
    config.analyzer_threads = threads;

    std::string out;
    ManualClock detect_clock;  // fresh timeline: identical across runs
    Monitor detect(&registry, &detect_clock);
    detect.set_model(*monitor.model());
    detect.arm(config);
    for (int chunk = 0; chunk < 8; ++chunk) {
      run_schedule(detect, detect_clock, /*seed=*/900 + chunk,
                   /*faulty=*/true, 500);
      out += dump(detect.poll(detect_clock.now()));
    }
    out += dump(detect.finish());
    return out;
  }
};

TEST_F(PoolMonitorFixture, MonitorOutputIdenticalAcrossThreadCounts) {
  const std::string serial = run_detection(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(run_detection(2), serial);
  EXPECT_EQ(run_detection(8), serial);
}

}  // namespace
}  // namespace saad::core
