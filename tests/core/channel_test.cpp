#include "core/channel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

namespace saad::core {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

Synopsis sample(TaskUid uid) {
  Synopsis s;
  s.stage = 1;
  s.uid = uid;
  s.log_points = {{1, 1}, {2, 3}};
  return s;
}

/// A synopsis whose start + duration is `end`.
Synopsis ending_at(UsTime end) {
  Synopsis s = sample(1);
  s.duration = 10;
  s.start = end - s.duration;
  return s;
}

struct Waited {
  bool due;
  Clock::duration took;
};

/// Waits on `channel` for `end` with `timeout` while another thread runs
/// `push` 20 ms into the wait.
Waited wait_through(SynopsisChannel& channel, UsTime end,
                    milliseconds timeout, const std::function<void()>& push) {
  std::thread pusher([&] {
    std::this_thread::sleep_for(milliseconds(20));
    push();
  });
  const auto begin = Clock::now();
  const bool due = channel.wait_for(end, timeout);
  const Waited waited{due, Clock::now() - begin};
  pusher.join();
  return waited;
}

TEST(SynopsisChannel, PushDrainPreservesOrder) {
  SynopsisChannel channel;
  for (TaskUid uid = 1; uid <= 5; ++uid) channel.push(sample(uid));
  std::vector<Synopsis> out;
  channel.drain(out);
  ASSERT_EQ(out.size(), 5u);
  for (TaskUid uid = 1; uid <= 5; ++uid) EXPECT_EQ(out[uid - 1].uid, uid);
}

TEST(SynopsisChannel, DrainAppendsAndEmpties) {
  SynopsisChannel channel;
  channel.push(sample(1));
  std::vector<Synopsis> out;
  out.push_back(sample(99));
  channel.drain(out);
  EXPECT_EQ(out.size(), 2u);
  channel.drain(out);  // nothing left
  EXPECT_EQ(out.size(), 2u);
}

TEST(SynopsisChannel, BatchDrainTakesEveryShardInOrder) {
  SynopsisChannel channel(2);
  auto first = channel.producer();   // shard 0
  auto second = channel.producer();  // shard 1
  SynopsisBatch frame;
  for (TaskUid uid = 1; uid <= 3; ++uid) frame.append(sample(uid));
  second.push(sample(10));
  second.push(frame);  // flushes the buffered synopsis first
  first.push(frame);
  SynopsisBatch out;
  channel.drain(out);
  std::vector<TaskUid> uids;
  for (const SynopsisView s : out) {
    uids.push_back(s.uid);
    EXPECT_EQ(s.log_points.size(), 2u);
  }
  EXPECT_EQ(uids, (std::vector<TaskUid>{1, 2, 3, 10, 1, 2, 3}));
  EXPECT_EQ(channel.pushed(), 7u);
  EXPECT_EQ(channel.encoded_bytes(), 7 * encoded_size(sample(1)));
  channel.drain(out);  // nothing left; out keeps what it had
  EXPECT_EQ(out.size(), 7u);
}

TEST(SynopsisChannel, CountsPushedAndBytes) {
  SynopsisChannel channel;
  EXPECT_EQ(channel.pushed(), 0u);
  EXPECT_EQ(channel.encoded_bytes(), 0u);
  channel.push(sample(1));
  channel.push(sample(2));
  EXPECT_EQ(channel.pushed(), 2u);
  EXPECT_EQ(channel.encoded_bytes(), 2 * encoded_size(sample(1)));
  // Counters survive draining (lifetime totals, used by Fig. 8).
  std::vector<Synopsis> out;
  channel.drain(out);
  EXPECT_EQ(channel.pushed(), 2u);
}

TEST(SynopsisChannel, ConcurrentProducersLoseNothing) {
  SynopsisChannel channel;
  constexpr int kThreads = 8, kPerThread = 2000;
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&channel, t] {
      for (int i = 0; i < kPerThread; ++i) {
        channel.push(sample(static_cast<TaskUid>(t * kPerThread + i)));
      }
    });
  }
  for (auto& p : producers) p.join();
  std::vector<Synopsis> out;
  channel.drain(out);
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(channel.pushed(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(SynopsisChannel, WaitSleepsThroughPushesThatEndBeforeItsThreshold) {
  SynopsisChannel channel;
  const Waited waited = wait_through(channel, 1000, milliseconds(300), [&] {
    channel.push(ending_at(999));
    auto producer = channel.producer();
    producer.push(ending_at(500));
  });
  EXPECT_FALSE(waited.due);
  EXPECT_GE(waited.took, milliseconds(300));
  EXPECT_EQ(channel.pushed(), 2u);
}

TEST(SynopsisChannel, CrossingPushWakesTheWaiterOnEveryEntryPath) {
  const std::function<void(SynopsisChannel&, UsTime)> paths[] = {
      [](SynopsisChannel& channel, UsTime end) {
        channel.push(ending_at(end));
      },
      [](SynopsisChannel& channel, UsTime end) {
        auto producer = channel.producer();
        producer.push(ending_at(end - 5));
        producer.push(ending_at(end));
        producer.flush();
      },
      [](SynopsisChannel& channel, UsTime end) {
        SynopsisBatch batch;
        batch.append(ending_at(end + 7));
        batch.append(ending_at(end - 5));
        channel.producer().push(batch);
      },
  };
  for (const auto& push : paths) {
    SynopsisChannel channel;
    const Waited waited = wait_through(channel, 1000, milliseconds(10000),
                                       [&] { push(channel, 1000); });
    EXPECT_TRUE(waited.due);
    EXPECT_LT(waited.took, milliseconds(5000));
  }
}

TEST(SynopsisChannel, WaitReturnsAtOnceForAQueuedSynopsisUntilItIsDrained) {
  SynopsisChannel channel;
  channel.push(ending_at(999));
  EXPECT_FALSE(channel.wait_for(1000, milliseconds(30)));
  {
    auto producer = channel.producer();
    producer.push(ending_at(1000));
  }
  const auto begin = Clock::now();
  EXPECT_TRUE(channel.wait_for(1000, milliseconds(10000)));
  EXPECT_LT(Clock::now() - begin, milliseconds(5000));
  EXPECT_TRUE(channel.wait_for(1000, milliseconds(10000)));  // still queued

  SynopsisBatch out;
  channel.drain(out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_FALSE(channel.wait_for(1000, milliseconds(30)));
  // The shard starts over: an earlier end pushed after the drain is its
  // newest.
  channel.push(ending_at(10));
  EXPECT_FALSE(channel.wait_for(11, milliseconds(30)));
  EXPECT_TRUE(channel.wait_for(10, milliseconds(10000)));
}

}  // namespace
}  // namespace saad::core
