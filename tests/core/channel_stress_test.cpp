// Concurrency stress for the sharded synopsis channel. These run in the
// dedicated `saad_stress_tests` target (ctest label "stress") so they can be
// cranked up under -fsanitize=thread without slowing the plain unit suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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
      // Direct push path: per-thread shard, strict per-thread FIFO.
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

TEST(ChannelStress, BatchDrainAgainstBatchAndDirectProducers) {
  // The serve and tracker shapes at once: whole decoded batches through a
  // Producer, direct pushes from other threads, and a consumer that drains
  // into one reused SynopsisBatch, swapping storage with the shards.
  constexpr TaskUid kBatches = 400, kPerBatch = 64, kDirect = 20000;
  constexpr int kDirectThreads = 3;
  SynopsisChannel channel;
  std::atomic<int> running{1 + kDirectThreads};
  std::vector<Synopsis> drained;
  std::thread drainer([&] {
    SynopsisBatch batch;
    const auto take = [&] {
      batch.clear();
      channel.drain(batch);
      batch.copy_to(drained);
    };
    while (running.load(std::memory_order_acquire) > 0) {
      take();
      std::this_thread::yield();
    }
    take();
  });
  std::vector<std::thread> producers;
  producers.emplace_back([&] {
    auto handle = channel.producer();
    SynopsisBatch frame;
    for (TaskUid b = 0; b < kBatches; ++b) {
      frame.clear();
      for (TaskUid i = 0; i < kPerBatch; ++i)
        frame.append(sample(0, b * kPerBatch + i));
      handle.push(frame);
    }
    running.fetch_sub(1, std::memory_order_release);
  });
  for (int t = 0; t < kDirectThreads; ++t) {
    producers.emplace_back([&, t] {
      const TaskUid base = kBatches * kPerBatch + t * kDirect;
      for (TaskUid i = 0; i < kDirect; ++i)
        channel.push(sample(static_cast<HostId>(1 + t), base + i));
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& p : producers) p.join();
  drainer.join();

  const std::size_t total = kBatches * kPerBatch + kDirectThreads * kDirect;
  ASSERT_EQ(drained.size(), total);
  EXPECT_EQ(channel.pushed(), total);
  // Every synopsis arrives once, intact, and each producer's in order.
  std::vector<TaskUid> last(1 + kDirectThreads, 0);
  std::vector<bool> seen(1 + kDirectThreads, false);
  std::set<TaskUid> uids;
  for (const auto& s : drained) {
    EXPECT_EQ(s, sample(s.host, s.uid));
    if (seen[s.host]) {
      EXPECT_LT(last[s.host], s.uid);
    }
    seen[s.host] = true;
    last[s.host] = s.uid;
    uids.insert(s.uid);
  }
  EXPECT_EQ(uids.size(), total);
}

TEST(ChannelStress, WaitForMissesNoCrossingPush) {
  // One producer pushes synopses that end at 1, 2, 3, ..., through direct
  // push(), a Producer flush and Producer::push(batch) in turn. The consumer
  // drains, then waits for the next end time; it announces that time first,
  // and the producer pushes the synopsis that crosses it right then, so the
  // push races the wait's setup. Every wait has its crossing push, so a
  // wait that runs out its 10 s lost a wake (it may still return true: it
  // looks at the shards once more at the timeout).
  constexpr UsTime kRounds = 50000;
  constexpr std::chrono::seconds kTimeout(10);
  SynopsisChannel channel;
  std::atomic<UsTime> announced{0};
  std::atomic<bool> stop{false};
  std::thread producer_thread([&] {
    auto producer = channel.producer();
    SynopsisBatch batch;
    for (UsTime end = 1; end <= kRounds; ++end) {
      while (announced.load(std::memory_order_acquire) < end)
        if (stop.load(std::memory_order_relaxed)) return;
      const Synopsis s = sample(0, static_cast<TaskUid>(end));  // ends at uid
      switch (end % 3) {
        case 0:
          channel.push(s);
          break;
        case 1:
          producer.push(s);
          producer.flush();
          break;
        default:
          batch.clear();
          batch.append(s);
          producer.push(batch);
          break;
      }
    }
  });
  UsTime seen = 0;
  std::uint64_t drained = 0, lost = 0;
  SynopsisBatch out;
  while (seen < kRounds) {
    out.clear();
    channel.drain(out);
    drained += out.size();
    for (const SynopsisView s : out) seen = std::max(seen, s.start + s.duration);
    if (seen == kRounds) break;
    announced.store(seen + 1, std::memory_order_release);
    const auto begin = std::chrono::steady_clock::now();
    if (!channel.wait_for(seen + 1, kTimeout) ||
        std::chrono::steady_clock::now() - begin >= kTimeout) {
      ++lost;
      break;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  producer_thread.join();
  EXPECT_EQ(lost, 0u) << "waiting for end time " << seen + 1;
  EXPECT_EQ(seen, kRounds);
  EXPECT_EQ(drained, static_cast<std::uint64_t>(kRounds));
}

}  // namespace
}  // namespace saad::core
