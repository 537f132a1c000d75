#include "core/tracker.h"

#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <vector>

#include "core/log_registry.h"
#include "core/logger.h"

namespace saad::core {
namespace {

struct TrackerFixture : ::testing::Test {
  ManualClock clock;
  std::mutex emitted_mu;  // the tracker emits from every thread at once
  std::vector<Synopsis> emitted;
  TaskExecutionTracker tracker{4, &clock, [this](const Synopsis& s) {
                                 std::lock_guard lock(emitted_mu);
                                 emitted.push_back(s);
                               }};
};

TEST_F(TrackerFixture, ExplicitTaskLifecycle) {
  clock.set(1000);
  auto task = tracker.begin_task(7);
  clock.set(1500);
  task->on_log(3, clock.now());
  clock.set(2200);
  task->on_log(3, clock.now());
  task->on_log(5, clock.now());
  tracker.end_task(std::move(task));

  ASSERT_EQ(emitted.size(), 1u);
  const Synopsis& s = emitted[0];
  EXPECT_EQ(s.host, 4);
  EXPECT_EQ(s.stage, 7);
  EXPECT_EQ(s.start, 1000);
  EXPECT_EQ(s.duration, 1200);  // last log at 2200
  ASSERT_EQ(s.log_points.size(), 2u);
  EXPECT_EQ(s.log_points[0], (LogPointCount{3, 2}));
  EXPECT_EQ(s.log_points[1], (LogPointCount{5, 1}));
}

TEST_F(TrackerFixture, TaskWithNoLogsHasZeroDuration) {
  auto task = tracker.begin_task(1);
  clock.advance(5000);
  tracker.end_task(std::move(task));
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].duration, 0);
  EXPECT_TRUE(emitted[0].log_points.empty());
}

TEST_F(TrackerFixture, UidsAreUniqueAndIncreasing) {
  auto a = tracker.begin_task(1);
  auto b = tracker.begin_task(1);
  EXPECT_NE(a->uid(), b->uid());
  tracker.end_task(std::move(a));
  tracker.end_task(std::move(b));
  EXPECT_EQ(tracker.tasks_completed(), 2u);
}

TEST_F(TrackerFixture, BindingRoutesLoggerCalls) {
  LogRegistry reg;
  const StageId st = reg.register_stage("S");
  const LogPointId p = reg.register_log_point(st, Level::kInfo, "hello");
  NullSink sink;
  Logger logger(&reg, &sink, Level::kInfo);
  logger.set_tracker(&tracker);

  auto task = tracker.begin_task(st);
  {
    TaskBinding bind(tracker, task.get());
    logger.log(p, "hello world");
  }
  tracker.end_task(std::move(task));
  ASSERT_EQ(emitted.size(), 1u);
  ASSERT_EQ(emitted[0].log_points.size(), 1u);
  EXPECT_EQ(emitted[0].log_points[0].point, p);
}

TEST_F(TrackerFixture, UnboundLogsAreCountedNotAttributed) {
  tracker.on_log(9);
  EXPECT_EQ(tracker.unattributed_logs(), 1u);
  EXPECT_TRUE(emitted.empty());
}

TEST_F(TrackerFixture, SetContextClosesPreviousTask) {
  // Producer-consumer inference: a thread starting task N+1 terminates task N.
  tracker.set_context(1);
  tracker.on_log(10);
  tracker.set_context(1);  // closes the first task
  tracker.on_log(11);
  tracker.end_context();

  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[0].log_points[0].point, 10);
  EXPECT_EQ(emitted[1].log_points[0].point, 11);
}

TEST_F(TrackerFixture, SetContextOnAnotherTrackerEmitsTheOpenTask) {
  // The producer-consumer rule is per thread, not per tracker: starting a
  // task on another tracker ends this thread's open task here.
  std::vector<Synopsis> other_emitted;
  TaskExecutionTracker other{5, &clock, [&](const Synopsis& s) {
                               other_emitted.push_back(s);
                             }};
  tracker.set_context(1);
  tracker.on_log(5);
  other.set_context(2);
  other.on_log(6);
  other.end_context();
  tracker.end_context();  // already ended by other.set_context

  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].host, 4);
  EXPECT_EQ(emitted[0].stage, 1);
  EXPECT_EQ(emitted[0].log_points, (std::vector<LogPointCount>{{5, 1}}));
  EXPECT_EQ(tracker.tasks_completed(), 1u);
  ASSERT_EQ(other_emitted.size(), 1u);
  EXPECT_EQ(other_emitted[0].host, 5);
  EXPECT_EQ(other_emitted[0].log_points, (std::vector<LogPointCount>{{6, 1}}));
  EXPECT_EQ(other.tasks_completed(), 1u);
  EXPECT_EQ(tracker.unattributed_logs() + other.unattributed_logs(), 0u);
}

TEST_F(TrackerFixture, EndContextIsIdempotent) {
  tracker.set_context(2);
  tracker.end_context();
  tracker.end_context();
  EXPECT_EQ(emitted.size(), 1u);
}

TEST_F(TrackerFixture, ThreadExitFlushesPendingTask) {
  // Dispatcher-worker inference: worker thread dies -> synopsis emitted
  // (the paper's finalizer trick; here, thread_local RAII).
  std::thread worker([this] {
    tracker.set_context(3);
    tracker.on_log(1);
    // no end_context: the thread exits with an open task
  });
  worker.join();
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].stage, 3);
}

TEST_F(TrackerFixture, ConcurrentThreadsProduceAllSynopses) {
  constexpr int kThreads = 8;
  constexpr int kTasksPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this] {
      for (int i = 0; i < kTasksPerThread; ++i) {
        tracker.set_context(1);
        tracker.on_log(5);
        tracker.end_context();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(emitted.size(),
            static_cast<std::size_t>(kThreads * kTasksPerThread));
  EXPECT_EQ(tracker.tasks_completed(),
            static_cast<std::uint64_t>(kThreads * kTasksPerThread));
}

TEST_F(TrackerFixture, LogPointCountsAccumulate) {
  auto task = tracker.begin_task(1);
  for (int i = 0; i < 57; ++i) task->on_log(2, clock.now());
  tracker.end_task(std::move(task));
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].log_points[0].count, 57u);
}

}  // namespace
}  // namespace saad::core
