// Race gate for the tracker's lock-free thread-local emit: many threads end
// tasks into one tracker at once, wired straight to the channel's direct
// push() the way Monitor::tracker() wires it, while another thread drains.
// Runs in `saad_stress_tests` (ctest label "stress"), which CI runs under
// -fsanitize=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/channel.h"
#include "core/tracker.h"

namespace saad::core {
namespace {

TEST(TrackerStress, ConcurrentTasksIntoChannel) {
  constexpr int kThreads = 8;
  constexpr int kTasksPerThread = 20'000;
  constexpr LogPointId kExitMarker = 99;  // logged only by the task left open
  RealClock clock;
  SynopsisChannel channel;
  TaskExecutionTracker tracker(1, &clock,
                               [&](const Synopsis& s) { channel.push(s); });

  std::atomic<bool> stop{false};
  std::vector<Synopsis> drained;
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      channel.drain(drained);
      std::this_thread::yield();
    }
    channel.drain(drained);
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracker, t] {
      const auto stage = static_cast<StageId>(t);
      for (int i = 0; i < kTasksPerThread; ++i) {
        tracker.set_context(stage);
        tracker.on_log(static_cast<LogPointId>(i % 3));
        tracker.on_log(static_cast<LogPointId>(3 + i % 2));
        tracker.end_context();
      }
      // Exit with a task open: the thread-exit flush must emit it once.
      tracker.set_context(stage);
      tracker.on_log(kExitMarker);
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  drainer.join();

  constexpr std::uint64_t kPerThread = kTasksPerThread + 1;
  EXPECT_EQ(tracker.tasks_completed(), kThreads * kPerThread);
  EXPECT_EQ(channel.pushed(), kThreads * kPerThread);
  ASSERT_EQ(drained.size(), kThreads * kPerThread);
  EXPECT_EQ(tracker.unattributed_logs(), 0u);

  std::vector<TaskUid> uids;
  uids.reserve(drained.size());
  for (const auto& s : drained) uids.push_back(s.uid);
  std::sort(uids.begin(), uids.end());
  EXPECT_EQ(std::adjacent_find(uids.begin(), uids.end()), uids.end())
      << "duplicated uid";

  // One thread per stage: its uids rise in drain order (per-thread FIFO
  // through its stable shard), and its exit task comes last, exactly once.
  std::map<StageId, std::vector<const Synopsis*>> by_stage;
  for (const auto& s : drained) by_stage[s.stage].push_back(&s);
  ASSERT_EQ(by_stage.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [stage, list] : by_stage) {
    ASSERT_EQ(list.size(), kPerThread) << "stage " << stage;
    for (std::size_t i = 1; i < list.size(); ++i)
      ASSERT_LT(list[i - 1]->uid, list[i]->uid) << "stage " << stage;
    const auto exits = std::count_if(list.begin(), list.end(), [](auto* s) {
      return s->log_points ==
             std::vector<LogPointCount>{{kExitMarker, 1}};
    });
    EXPECT_EQ(exits, 1) << "stage " << stage;
    EXPECT_EQ(list.back()->log_points,
              (std::vector<LogPointCount>{{kExitMarker, 1}}));
  }
}

}  // namespace
}  // namespace saad::core
