#include "core/monitor.h"

#include <gtest/gtest.h>

#include <barrier>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "core/live_analyzer.h"
#include "core/log_registry.h"
#include "core/logger.h"
#include "core/trace_io.h"
#include "obs/metrics.h"
#include "testutil/synthetic_stream.h"
#include "testutil/temp_dir.h"

namespace saad::core {
namespace {

using testutil::dump;

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

  /// `tasks` seeded tasks over 4 hosts; with `faulty`, some take the rare
  /// flow and some run 30 times longer.
  void run_schedule(Monitor& monitor, std::uint64_t seed, int tasks,
                    bool faulty) {
    Rng rng(seed);
    for (int i = 0; i < tasks; ++i) {
      const auto host = static_cast<HostId>(rng.next_below(4));
      const bool rare = faulty && rng.next_double() < 0.15;
      UsTime duration = ms(2 + static_cast<std::int64_t>(rng.next_below(5)));
      if (faulty && rng.next_double() < 0.2) duration *= 30;
      run_task(monitor, rare, duration, host);
    }
  }

  /// A model trained on `tasks` tasks, every `rare_every`-th (0: none) with
  /// the rare flow.
  OutlierModel train(int tasks, int rare_every = 0) {
    Monitor trainer(&registry, &clock);
    trainer.start_training();
    for (int i = 0; i < tasks; ++i)
      run_task(trainer, rare_every > 0 && i % rare_every == 0, ms(5));
    trainer.train();
    return *trainer.model();
  }
};

void append(std::vector<Anomaly>& out, const std::vector<Anomaly>& more) {
  out.insert(out.end(), more.begin(), more.end());
}

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

// ---- The armed plane (monitor.h) --------------------------------------------

TEST_F(MonitorFixture, ModelChangeWhileArmedKeepsTheArmedModel) {
  // A never saw the rare flow, so detecting on it flags every window that
  // holds one as a new signature; B saw it in half its training tasks.
  const OutlierModel model_a = train(1000);
  const OutlierModel model_b = train(1000, 2);
  DetectorConfig config;
  config.window = sec(1);
  // 400 tasks, every 20th rare: about 2.4 s, so a window is still open at
  // the poll that ends the phase.
  const auto phase = [&](Monitor& monitor, std::vector<Anomaly>& out) {
    for (int i = 0; i < 400; ++i) run_task(monitor, i % 20 == 0, ms(5));
    append(out, monitor.poll(clock.now()));
  };
  // Arms on `model`, runs a phase, then `between`, then finish().
  const auto detect =
      [&](const OutlierModel& model,
          const std::function<void(Monitor&, std::vector<Anomaly>&)>&
              between) {
        clock.set(minutes(10));
        Monitor monitor(&registry, &clock);
        monitor.set_model(model);
        monitor.arm(config);
        std::vector<Anomaly> verdicts;
        phase(monitor, verdicts);
        between(monitor, verdicts);
        append(verdicts, monitor.finish());
        return dump(verdicts);
      };

  // set_model() while armed: the next phase still detects on A.
  const std::string two_phases = detect(model_a, phase);
  ASSERT_FALSE(two_phases.empty());
  EXPECT_NE(detect(model_b, phase), two_phases);  // the model matters
  EXPECT_EQ(detect(model_a,
                   [&](Monitor& monitor, std::vector<Anomaly>& out) {
                     monitor.set_model(model_b);
                     phase(monitor, out);
                   }),
            two_phases);

  // Retraining while armed: finish() still closes the open window on A.
  const std::string one_phase =
      detect(model_a, [](Monitor&, std::vector<Anomaly>&) {});
  EXPECT_EQ(detect(model_a,
                   [&](Monitor& monitor, std::vector<Anomaly>&) {
                     monitor.start_training();
                     for (int i = 0; i < 100; ++i)
                       run_task(monitor, true, ms(5));
                     monitor.train();
                   }),
            one_phase);
}

TEST_F(MonitorFixture, InterleavedProducerThreadsStayInTheirWindows) {
  // Every detected task below takes the rare flow, which the model never
  // saw, so each (window, host) raises one new-signature verdict whose n
  // counts the tasks that started there.
  Monitor monitor(&registry, &clock);
  monitor.set_model(train(1000));
  DetectorConfig config;
  config.window = sec(1);
  monitor.arm(config);
  clock.set(minutes(10));
  const std::size_t first_window = 600;

  // Four threads, each with its own host and hence its own channel shard,
  // run a window's tasks per phase; between phases the clock moves one
  // window on. tracker() is not thread-safe, so the trackers exist first.
  constexpr int kThreads = 4, kWindows = 4, kTasks = 50;
  std::vector<TaskExecutionTracker*> trackers;
  for (HostId host = 0; host < kThreads; ++host)
    trackers.push_back(&monitor.tracker(host));
  std::barrier sync(kThreads + 1);
  std::vector<std::thread> threads;
  for (TaskExecutionTracker* tracker : trackers) {
    threads.emplace_back([&, tracker] {
      for (int w = 0; w < kWindows; ++w) {
        sync.arrive_and_wait();  // the clock is in window w
        for (int i = 0; i < kTasks; ++i) {
          auto task = tracker->begin_task(stage);
          task->on_log(lp_a, clock.now());
          task->on_log(lp_rare, clock.now());
          task->on_log(lp_b, clock.now());
          tracker->end_task(std::move(task));
        }
        sync.arrive_and_wait();  // window w's tasks are in the channel
      }
    });
  }
  for (int w = 0; w < kWindows; ++w) {
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    clock.advance(config.window);
  }
  for (auto& thread : threads) thread.join();

  // One poll drains every shard, one after another, then closes all four
  // windows by the clock: no synopsis moves to a later window.
  auto& late = obs::MetricsRegistry::global().counter(
      "saad_detector_late_reattributed_total", "");
  const std::uint64_t late_before = late.value();
  const auto verdicts = monitor.poll(clock.now());
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(late.value(), late_before);
  }
  std::map<std::size_t, std::uint64_t> tasks_by_window;
  for (const Anomaly& a : verdicts) {
    EXPECT_TRUE(a.due_to_new_signature);
    tasks_by_window[a.window] += a.n;
  }
  ASSERT_EQ(tasks_by_window.size(), static_cast<std::size_t>(kWindows));
  for (std::size_t w = first_window; w < first_window + kWindows; ++w)
    EXPECT_EQ(tasks_by_window[w], std::uint64_t{kThreads * kTasks})
        << "window " << w;
}

TEST_F(MonitorFixture, LateTaskCountsInTheCursorWindowPastEmptyOnes) {
  Monitor monitor(&registry, &clock);
  monitor.set_model(train(1000));
  DetectorConfig config;
  config.window = sec(1);
  monitor.arm(config);
  auto& late = obs::MetricsRegistry::global().counter(
      "saad_detector_late_reattributed_total", "");
  const std::uint64_t late_before = late.value();

  // The poll at 3.5 s closes window 0 and passes windows 1 and 2, which no
  // task opened; a task that started in window 1 then counts in window 3.
  clock.set(ms(100));
  run_task(monitor, false, ms(2));
  EXPECT_TRUE(monitor.poll(ms(3500)).empty());
  clock.set(ms(1500));
  run_task(monitor, true, ms(4200));  // the rare flow: a new signature
  const auto verdicts = monitor.poll(ms(4500));
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].due_to_new_signature);
  EXPECT_EQ(verdicts[0].window, 3u);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(late.value(), late_before + 1);
  }
}

TEST_F(MonitorFixture, VerdictsMatchLiveAnalyzerOnARecordedStream) {
  const OutlierModel model = train(4000);
  DetectorConfig config;
  config.window = sec(1);

  // In process: one poll at the end of the schedule, then finish().
  clock.set(0);
  Monitor armed(&registry, &clock);
  armed.set_model(model);
  armed.arm(config);
  run_schedule(armed, 900, 3000, /*faulty=*/true);
  std::vector<Anomaly> in_process = armed.poll(clock.now());
  append(in_process, armed.finish());

  // The same schedule recorded, then read back block by block into the
  // engine behind `detect`.
  testutil::TempDir tmp;
  const std::string path = tmp.path("schedule.trc");
  TraceWriter::Options options;
  options.block_bytes = 4096;
  TraceWriter writer(path, options);
  clock.set(0);
  Monitor recorder(&registry, &clock);
  recorder.start_recording(&writer);
  run_schedule(recorder, 900, 3000, /*faulty=*/true);
  ASSERT_TRUE(recorder.stop_recording());
  ASSERT_TRUE(writer.finalize());
  LiveAnalyzer::Options live;
  live.config = config;
  std::vector<std::uint8_t> model_bytes;
  model.save(model_bytes);
  LiveAnalyzer engine(model, std::move(model_bytes), std::move(live));
  TraceReader reader(path);
  SynopsisBatch block;
  std::size_t blocks = 0;
  for (; reader.next(block); ++blocks) engine.ingest(block);
  engine.finish();
  EXPECT_GT(blocks, 1u);
  EXPECT_EQ(engine.ingested(), 3000u);

  ASSERT_FALSE(in_process.empty());
  EXPECT_EQ(dump(engine.verdicts()), dump(in_process));
}

}  // namespace
}  // namespace saad::core
