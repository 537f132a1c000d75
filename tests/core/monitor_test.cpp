#include "core/monitor.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "core/log_registry.h"
#include "core/logger.h"
#include "core/trace_io.h"
#include "testutil/temp_dir.h"

namespace saad::core {
namespace {

struct MonitorFixture : ::testing::Test {
  LogRegistry registry;
  ManualClock clock;
  StageId stage = kInvalidStage;
  LogPointId lp_a = 0, lp_b = 0, lp_rare = 0;

  void SetUp() override {
    stage = registry.register_stage("Worker");
    lp_a = registry.register_log_point(stage, Level::kDebug, "begin");
    lp_b = registry.register_log_point(stage, Level::kDebug, "end");
    lp_rare = registry.register_log_point(stage, Level::kWarn, "oops");
  }

  void run_task(Monitor& monitor, bool rare, UsTime duration,
                HostId host = 0) {
    auto& tracker = monitor.tracker(host);
    auto task = tracker.begin_task(stage);
    task->on_log(lp_a, clock.now());
    if (rare) task->on_log(lp_rare, clock.now());
    clock.advance(duration);
    task->on_log(lp_b, clock.now());
    clock.advance(ms(1));  // spread start times
    tracker.end_task(std::move(task));
  }
};

TEST_F(MonitorFixture, EndToEndTrainingAndDetection) {
  Monitor monitor(&registry, &clock);
  monitor.start_training();
  for (int i = 0; i < 2000; ++i) run_task(monitor, false, ms(5));
  monitor.train();
  ASSERT_EQ(monitor.training_trace().size(), 2000u);
  ASSERT_NE(monitor.model(), nullptr);

  monitor.arm();
  for (int i = 0; i < 100; ++i) run_task(monitor, false, ms(5));
  for (int i = 0; i < 30; ++i) run_task(monitor, true, ms(5));
  clock.advance(minutes(2));
  const auto anomalies = monitor.poll(clock.now());
  ASSERT_FALSE(anomalies.empty());
  EXPECT_EQ(anomalies[0].kind, AnomalyKind::kFlow);
  EXPECT_TRUE(anomalies[0].due_to_new_signature);
}

TEST_F(MonitorFixture, QuietDetectionWindowIsClean) {
  Monitor monitor(&registry, &clock);
  monitor.start_training();
  for (int i = 0; i < 2000; ++i) run_task(monitor, false, ms(5));
  monitor.train();
  monitor.arm();
  for (int i = 0; i < 500; ++i) run_task(monitor, false, ms(5));
  clock.advance(minutes(2));
  EXPECT_TRUE(monitor.poll(clock.now()).empty());
}

TEST_F(MonitorFixture, TrackerIsStablePerHost) {
  Monitor monitor(&registry, &clock);
  auto& t0 = monitor.tracker(0);
  auto& t5 = monitor.tracker(5);
  EXPECT_EQ(&t0, &monitor.tracker(0));
  EXPECT_EQ(&t5, &monitor.tracker(5));
  EXPECT_NE(&t0, &t5);
  EXPECT_EQ(t0.host(), 0);
  EXPECT_EQ(t5.host(), 5);
}

TEST_F(MonitorFixture, TrainWithoutStartTrainingThrows) {
  Monitor monitor(&registry, &clock);
  EXPECT_THROW(monitor.train(), std::logic_error);
}

TEST_F(MonitorFixture, ArmWithoutModelThrows) {
  Monitor monitor(&registry, &clock);
  EXPECT_THROW(monitor.arm(), std::logic_error);
}

TEST_F(MonitorFixture, StartTrainingDiscardsStaleSynopses) {
  Monitor monitor(&registry, &clock);
  run_task(monitor, false, ms(5));  // before training formally starts
  monitor.start_training();
  run_task(monitor, false, ms(5));
  monitor.train();
  EXPECT_EQ(monitor.training_trace().size(), 1u);
}

TEST_F(MonitorFixture, PollDuringTrainingAccumulatesTrace) {
  Monitor monitor(&registry, &clock);
  monitor.start_training();
  run_task(monitor, false, ms(5));
  EXPECT_TRUE(monitor.poll(clock.now()).empty());
  run_task(monitor, false, ms(5));
  monitor.train();
  EXPECT_EQ(monitor.training_trace().size(), 2u);
}

TEST_F(MonitorFixture, FinishClosesOpenWindows) {
  Monitor monitor(&registry, &clock);
  monitor.start_training();
  for (int i = 0; i < 1000; ++i) run_task(monitor, false, ms(5));
  monitor.train();
  monitor.arm();
  run_task(monitor, true, ms(5));  // new signature in a still-open window
  const auto anomalies = monitor.finish();
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_TRUE(anomalies[0].due_to_new_signature);
}

TEST_F(MonitorFixture, ChannelCountsBytes) {
  Monitor monitor(&registry, &clock);
  monitor.start_training();
  for (int i = 0; i < 10; ++i) run_task(monitor, false, ms(5));
  EXPECT_EQ(monitor.channel().pushed(), 10u);
  EXPECT_GT(monitor.channel().encoded_bytes(), 0u);
}

// ---- Pinned edge-case behavior (documented in monitor.h) -------------------

TEST_F(MonitorFixture, PollBeforeArmReturnsEmptyAndDiscards) {
  Monitor monitor(&registry, &clock);
  run_task(monitor, false, ms(5));
  // Idle poll: no detection, no training capture — the synopsis is drained
  // and discarded (same policy arm() applies between training and arming).
  EXPECT_TRUE(monitor.poll(clock.now()).empty());
  EXPECT_EQ(monitor.channel().pushed(), 1u);  // lifetime counter unaffected
  monitor.start_training();
  run_task(monitor, false, ms(5));
  monitor.train();
  // Only the post-start task made it into the trace.
  EXPECT_EQ(monitor.training_trace().size(), 1u);
}

TEST_F(MonitorFixture, TrainOnEmptyTraceYieldsEmptyLoudModel) {
  Monitor monitor(&registry, &clock);
  monitor.start_training();
  monitor.train();  // zero tasks observed: valid, not an error
  ASSERT_NE(monitor.model(), nullptr);
  EXPECT_EQ(monitor.model()->trained_tasks(), 0u);
  EXPECT_EQ(monitor.model()->num_stages(), 0u);
  // Against an empty model every stage is unknown, so detection is loud:
  // each task raises a new-signature flow anomaly rather than being ignored.
  monitor.arm();
  run_task(monitor, false, ms(5));
  const auto anomalies = monitor.finish();
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, AnomalyKind::kFlow);
  EXPECT_TRUE(anomalies[0].due_to_new_signature);
}

TEST_F(MonitorFixture, FinishTwiceSecondCallIsEmpty) {
  Monitor monitor(&registry, &clock);
  monitor.start_training();
  for (int i = 0; i < 1000; ++i) run_task(monitor, false, ms(5));
  monitor.train();
  monitor.arm();
  run_task(monitor, true, ms(5));
  EXPECT_FALSE(monitor.finish().empty());
  // All windows were closed by the first call; with no new synopses the
  // second finish() has nothing to report (and must not throw or re-emit).
  EXPECT_TRUE(monitor.finish().empty());
  EXPECT_TRUE(monitor.armed());  // finish() does not disarm
}

TEST_F(MonitorFixture, FinishBeforeArmReturnsEmpty) {
  Monitor monitor(&registry, &clock);
  EXPECT_TRUE(monitor.finish().empty());
}

TEST_F(MonitorFixture, RecordingStreamsSynopsesToDisk) {
  const auto path = testutil::scratch_path("monitor_rec.trc");
  Monitor monitor(&registry, &clock);
  TraceWriter::Options options;
  options.block_bytes = 256;  // several blocks for 200 tasks
  TraceWriter writer(path, options);
  monitor.start_recording(&writer);
  for (int i = 0; i < 200; ++i) run_task(monitor, false, ms(5));
  monitor.poll(clock.now());
  EXPECT_TRUE(monitor.stop_recording());
  ASSERT_TRUE(writer.finalize());
  EXPECT_EQ(writer.synopses_written(), 200u);
  // Recording spills to disk instead of RAM.
  EXPECT_TRUE(monitor.training_trace().empty());

  TraceStats stats;
  const auto loaded = read_trace_file(path, &stats);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 200u);
  EXPECT_EQ(stats.version, 2);
  EXPECT_GT(stats.blocks_total, 1u);
  for (const auto& s : *loaded) EXPECT_EQ(s.stage, stage);

  // The spilled trace round-trips into training, closing the loop:
  // record -> file -> train.
  Monitor trainer(&registry, &clock);
  trainer.set_model(OutlierModel::train(*loaded));
  trainer.arm();
  run_task(trainer, true, ms(5));
  clock.advance(minutes(2));
  EXPECT_FALSE(trainer.poll(clock.now()).empty());
  std::filesystem::remove(path);
}

TEST_F(MonitorFixture, StopRecordingWithoutStartThrows) {
  Monitor monitor(&registry, &clock);
  EXPECT_THROW(monitor.stop_recording(), std::logic_error);
}

TEST_F(MonitorFixture, SetModelAllowsExternallyTrainedModel) {
  Monitor trainer(&registry, &clock);
  trainer.start_training();
  for (int i = 0; i < 1000; ++i) run_task(trainer, false, ms(5));
  trainer.train();

  Monitor fresh(&registry, &clock);
  fresh.set_model(*trainer.model());
  fresh.arm();
  run_task(fresh, true, ms(5));
  clock.advance(minutes(2));
  EXPECT_FALSE(fresh.poll(clock.now()).empty());
}

}  // namespace
}  // namespace saad::core
