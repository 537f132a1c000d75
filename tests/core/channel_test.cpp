#include "core/channel.h"

#include <gtest/gtest.h>

#include <thread>

namespace saad::core {
namespace {

Synopsis sample(TaskUid uid) {
  Synopsis s;
  s.stage = 1;
  s.uid = uid;
  s.log_points = {{1, 1}, {2, 3}};
  return s;
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

}  // namespace
}  // namespace saad::core
