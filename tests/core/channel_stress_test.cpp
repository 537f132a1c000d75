// Concurrency stress for the sharded synopsis channel. These run in the
// dedicated `saad_stress_tests` target (ctest label "stress") so they can be
// cranked up under -fsanitize=thread without slowing the plain unit suite.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "core/channel.h"

namespace saad::core {
namespace {

Synopsis sample(HostId host, TaskUid uid) {
  Synopsis s;
  s.host = host;
  s.stage = static_cast<StageId>(1 + uid % 7);
  s.uid = uid;
  s.start = static_cast<UsTime>(uid);
  s.log_points = {{1, 1}, {static_cast<LogPointId>(2 + uid % 5), 3}};
  return s;
}

TEST(ChannelStress, ProducersAgainstConcurrentDrainer) {
  constexpr int kProducers = 8;
  constexpr TaskUid kPerProducer = 10000;
  SynopsisChannel channel;

  std::uint64_t expected_bytes = 0;
  for (int t = 0; t < kProducers; ++t)
    for (TaskUid i = 0; i < kPerProducer; ++i)
      expected_bytes += encoded_size(
          sample(static_cast<HostId>(t), t * kPerProducer + i));

  std::atomic<int> running{kProducers};
  std::vector<Synopsis> drained;
  std::thread drainer([&] {
    // Keep draining while producers run; one final drain after they stop.
    while (running.load(std::memory_order_acquire) > 0) {
      channel.drain(drained);
      std::this_thread::yield();
    }
    channel.drain(drained);
  });

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&channel, &running, t] {
      auto handle = channel.producer();
      for (TaskUid i = 0; i < kPerProducer; ++i) {
        handle.push(sample(static_cast<HostId>(t), t * kPerProducer + i));
      }
      handle.flush();
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& p : producers) p.join();
  drainer.join();

  // No loss, no duplication.
  ASSERT_EQ(drained.size(),
            static_cast<std::size_t>(kProducers) * kPerProducer);
  std::set<TaskUid> uids;
  for (const auto& s : drained) uids.insert(s.uid);
  EXPECT_EQ(uids.size(), drained.size()) << "duplicated synopses";
  EXPECT_EQ(*uids.begin(), 0u);
  EXPECT_EQ(*uids.rbegin(), kProducers * kPerProducer - 1);

  // Wire accounting is exact once all producers have flushed.
  EXPECT_EQ(channel.pushed(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(channel.encoded_bytes(), expected_bytes);
}

TEST(ChannelStress, PerProducerOrderSurvivesConcurrency) {
  constexpr int kProducers = 4;
  constexpr TaskUid kPerProducer = 5000;
  SynopsisChannel channel;
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&channel, t] {
      // Direct push path: thread-hashed shard, strict per-thread FIFO.
      for (TaskUid i = 0; i < kPerProducer; ++i)
        channel.push(sample(static_cast<HostId>(t), t * kPerProducer + i));
    });
  }
  for (auto& p : producers) p.join();
  std::vector<Synopsis> out;
  channel.drain(out);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kProducers) * kPerProducer);
  std::vector<TaskUid> last(kProducers, 0);
  std::vector<bool> seen(kProducers, false);
  for (const auto& s : out) {
    const auto producer = static_cast<std::size_t>(s.uid / kPerProducer);
    if (seen[producer]) {
      EXPECT_LT(last[producer], s.uid);
    }
    seen[producer] = true;
    last[producer] = s.uid;
  }
}

TEST(ChannelStress, MixedBatchedAndDirectProducers) {
  constexpr TaskUid kEach = 8000;
  SynopsisChannel channel;
  std::thread batched([&channel] {
    auto handle = channel.producer();
    for (TaskUid i = 0; i < kEach; ++i) handle.push(sample(0, i));
  });
  std::thread direct([&channel] {
    for (TaskUid i = kEach; i < 2 * kEach; ++i) channel.push(sample(1, i));
  });
  batched.join();
  direct.join();
  std::vector<Synopsis> out;
  channel.drain(out);
  EXPECT_EQ(out.size(), 2 * kEach);
  EXPECT_EQ(channel.pushed(), 2 * kEach);
}

}  // namespace
}  // namespace saad::core
