// Steady-state allocation pins for the hot paths: reading a trace block by
// block, ingesting into an open window, crossing window closes that raise no
// verdict, a tracked task on a thread that has run one before, and the two
// ways a synopsis reaches the analyzer in flight — received bytes through
// the server's frame reassembly, decode, publish, drain and ingest, and a
// tracked task through the channel's direct push and drain — must not touch
// the heap once the buffers and tallies exist. Training on signatures
// already seen may allocate only as its duration groups grow. This binary
// replaces the global operator new to count calls, so it is its own test
// executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/clock.h"
#include "common/rng.h"
#include "core/channel.h"
#include "core/detector.h"
#include "core/live_analyzer.h"
#include "core/model.h"
#include "core/trace_io.h"
#include "core/tracker.h"
#include "net/wire.h"
#include "testutil/synthetic_stream.h"
#include "testutil/temp_dir.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align = 0) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  return align <= alignof(std::max_align_t)
             ? std::malloc(n)
             : std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* counted_alloc_or_throw(std::size_t n, std::size_t align = 0) {
  if (void* p = counted_alloc(n, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form, so no allocation bypasses the count and every
// block is released by the matching free().
void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace saad::core {
namespace {

TEST(HotPathAllocations, TraceReaderNextAfterTheFirstBlock) {
  testutil::TempDir tmp;
  const std::string path = tmp.path("uniform.trc");
  {
    // Records of one encoded size: every full block carries the same bytes,
    // records and points, so the first block sizes every buffer.
    TraceWriter::Options options;
    options.block_bytes = 1024;
    TraceWriter writer(path, options);
    for (int i = 0; i < 2000; ++i) {
      Synopsis s;
      s.host = static_cast<HostId>(i % 4);
      s.stage = static_cast<StageId>(i % 8);
      s.uid = 1000 + static_cast<TaskUid>(i);
      s.start = sec(2) + static_cast<UsTime>(i) * 1000;
      s.duration = ms(3);
      s.log_points = {{10, 1}, {11, 2}, {15, 1}, {40, 7}};
      ASSERT_TRUE(writer.append(s));
    }
    ASSERT_TRUE(writer.finalize());
  }
  TraceReader reader(path);
  ASSERT_TRUE(reader.ok());
  Synopsis s;
  ASSERT_TRUE(reader.next(s));
  const std::uint64_t before = g_allocations.load();
  std::size_t read = 1;
  while (reader.next(s)) ++read;
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(read, 2000u);
  EXPECT_GT(reader.stats().blocks_total, 10u);
}

TEST(HotPathAllocations, DetectorReingestIntoAnOpenWindow) {
  Rng rng(3);
  auto task = [&](StageId stage, bool rare, UsTime start) {
    Synopsis s;
    s.host = static_cast<HostId>(rng.next_below(8));
    s.stage = stage;
    s.start = start;
    s.duration = static_cast<UsTime>(rng.lognormal_median(ms(5), 0.3));
    const auto base = static_cast<LogPointId>(stage * 10);
    s.log_points = {{base, 1}, {static_cast<LogPointId>(base + 1), 2}};
    if (rare) s.log_points.push_back({static_cast<LogPointId>(base + 2), 1});
    return s;
  };
  std::vector<Synopsis> training;
  for (int i = 0; i < 20000; ++i)
    training.push_back(task(static_cast<StageId>(i % 4), rng.chance(0.005),
                            static_cast<UsTime>(i) * 100));
  const auto model = OutlierModel::train(training);

  // Known signatures only, common and rare (flow outliers), some slow.
  std::vector<Synopsis> window;
  for (int i = 0; i < 5000; ++i) {
    Synopsis s = task(static_cast<StageId>(i % 4), rng.chance(0.05),
                      static_cast<UsTime>(i) * 10);
    if (rng.chance(0.05)) s.duration *= 10;
    window.push_back(std::move(s));
  }
  AnomalyDetector detector(&model, {});
  for (const auto& s : window) detector.ingest(s);
  const std::uint64_t before = g_allocations.load();
  for (const auto& s : window) detector.ingest(s);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(detector.ingested(), 2 * window.size());
  EXPECT_FALSE(detector.finish().empty());  // the slow tail is anomalous
}

TEST(HotPathAllocations, DetectorCrossesWindowClosesAfterWarmup) {
  // 8 hosts x 4 stages, two signatures per stage at even odds, log-normal
  // durations: every key sees both signatures in every one-second window,
  // and nothing is anomalous.
  Rng rng(7);
  auto task = [&](int i, UsTime start) {
    Synopsis s;
    s.host = static_cast<HostId>(i % 8);
    s.stage = static_cast<StageId>(i / 8 % 4);
    s.start = start;
    s.duration = static_cast<UsTime>(rng.lognormal_median(ms(5), 0.3));
    const auto base = static_cast<LogPointId>(s.stage * 10);
    const auto variant = static_cast<LogPointId>(base + 1 + i / 32 % 2);
    s.log_points = {{base, 1}, {variant, 1}};
    return s;
  };
  std::vector<Synopsis> training;
  for (int i = 0; i < 20000; ++i)
    training.push_back(task(i, static_cast<UsTime>(i) * 100));
  const auto model = OutlierModel::train(training);

  constexpr int kWarmup = 5, kMeasured = 20, kPerWindow = 2000;
  std::vector<std::vector<Synopsis>> windows;
  for (int w = 0; w < kWarmup + kMeasured; ++w) {
    windows.emplace_back();
    for (int i = 0; i < kPerWindow; ++i)
      windows.back().push_back(task(i, sec(w) + i * (sec(1) / kPerWindow)));
  }
  DetectorConfig config;
  config.window = sec(1);
  AnomalyDetector detector(&model, config);
  std::size_t verdicts = 0;
  // Each window stays open while the next one fills, as behind a watermark.
  const auto run = [&](int w) {
    for (const Synopsis& s : windows[w]) detector.ingest(s);
    verdicts += detector.advance_to(sec(w)).size();
  };
  for (int w = 0; w < kWarmup; ++w) run(w);
  const std::uint64_t before = g_allocations.load();
  for (int w = kWarmup; w < kWarmup + kMeasured; ++w) run(w);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(verdicts, 0u);
  EXPECT_EQ(detector.next_window_to_close(),
            static_cast<std::size_t>(kWarmup + kMeasured - 1));
}

TEST(HotPathAllocations, TrainerAddOfKnownSignatures) {
  // 3 stages x 4 signatures; a third of the point lists come unsorted with
  // a repeat, which takes the trainer's sort-and-dedupe scratch. Once every
  // signature is interned, add() allocates only when a group's duration
  // vector grows, a logarithmic number of times.
  Rng rng(13);
  SynopsisBatch batch;
  for (int i = 0; i < 200000; ++i) {
    const auto stage = static_cast<StageId>(i % 3);
    const auto base = static_cast<LogPointId>(stage * 10);
    const auto variant = static_cast<LogPointId>(base + 1 + i / 3 % 4);
    Synopsis s;
    s.stage = stage;
    s.start = static_cast<UsTime>(i) * 10;
    s.duration = static_cast<UsTime>(rng.lognormal_median(ms(5), 0.3));
    if (rng.chance(0.33))
      s.log_points = {{variant, 1}, {base, 2}, {variant, 1}};
    else
      s.log_points = {{base, 2}, {variant, 2}};
    batch.append(s);
  }
  SynopsisBatch warmup;
  for (std::size_t i = 0; i < 64; ++i) warmup.append(batch[i]);
  ModelTrainer trainer;
  trainer.add(warmup);
  const std::uint64_t before = g_allocations.load();
  trainer.add(batch);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_LT(static_cast<double>(allocations) / static_cast<double>(batch.size()),
            0.001)
      << allocations << " allocations";
  const OutlierModel model = trainer.finish();
  EXPECT_EQ(model.trained_tasks(), batch.size() + warmup.size());
  EXPECT_EQ(model.num_stages(), 3u);
}

TEST(HotPathAllocations, ThreadLocalTaskAfterTheFirst) {
  ManualClock clock;
  TaskExecutionTracker tracker(0, &clock, [](const Synopsis&) {});
  const LogPointId points[] = {7, 3, 9, 3};
  auto run_task = [&] {
    tracker.set_context(1);
    for (const LogPointId p : points) {
      clock.advance(10);
      tracker.on_log(p);
    }
    tracker.end_context();
  };
  run_task();  // sizes the thread's reused context
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) run_task();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(tracker.tasks_completed(), 1001u);
  EXPECT_EQ(tracker.unattributed_logs(), 0u);
}

TEST(HotPathAllocations, ServePathAfterWarmup) {
  // serve's path minus the socket: feed received bytes to the frame decoder
  // in recv()-sized chunks, pop each frame, decode its payload into a batch,
  // publish it whole, drain, ingest. One 60 s window holds the whole 8.4 s
  // stream, so nothing closes. The model is trained at the stream's rates,
  // so it knows every signature: the detector materializes the signatures a
  // model lacks, which is not this path's cost.
  std::vector<std::uint8_t> model_bytes;
  OutlierModel::train(testutil::make_trace(11, 20000, 0.05, 0.08))
      .save(model_bytes);
  auto model = OutlierModel::load(model_bytes);
  ASSERT_TRUE(model.has_value());
  LiveAnalyzer::Options options;
  options.config.window = sec(60);
  LiveAnalyzer engine(std::move(*model), model_bytes, std::move(options));

  const auto stream = testutil::make_trace(12, 12000, 0.05, 0.08);
  std::vector<std::uint8_t> received, payload;  // frames back to back
  std::size_t frames = 0;
  for (std::size_t i = 0; i < stream.size(); i += 256, ++frames) {
    payload.clear();
    net::encode_batch(std::span(stream).subspan(
                          i, std::min<std::size_t>(256, stream.size() - i)),
                      payload);
    net::encode_frame(net::FrameType::kBatch, payload, received);
  }
  constexpr std::size_t kRecv = 64 * 1024;  // the server's recv() size
  ASSERT_GT(received.size(), 2 * kRecv);    // frames straddle chunks
  net::FrameDecoder decoder(/*expect_magic=*/false);
  net::Frame frame;
  SynopsisChannel channel;
  auto producer = channel.producer();
  SynopsisBatch decoded, drained;
  std::size_t popped = 0;
  const auto pass = [&] {
    for (std::size_t at = 0; at < received.size(); at += kRecv) {
      ASSERT_TRUE(decoder.feed(std::span(received).subspan(
          at, std::min(kRecv, received.size() - at))));
      while (decoder.next(frame)) {
        ++popped;
        decoded.clear();
        ASSERT_TRUE(net::decode_batch(frame.payload, decoded));
        producer.push(decoded);
        drained.clear();
        channel.drain(drained);
        engine.ingest(drained);
      }
    }
  };
  // Warm-up sizes the buffers and tallies every key and signature. Each
  // pass cuts the bytes at the same points, so the decoder's buffer has
  // held its largest chunk after one. The shard and the consumer swap
  // storage at each drain, and the frames are odd in number, so each of the
  // two storages has held every frame only after two passes.
  pass();
  pass();
  const std::uint64_t before = g_allocations.load();
  pass();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(popped, 3 * frames);
  EXPECT_FALSE(decoder.mid_frame());
  EXPECT_EQ(engine.ingested(), 3 * stream.size());
  EXPECT_EQ(engine.status().close_barriers.load(), 0u);
}

TEST(HotPathAllocations, TrackedTaskThroughTheChannel) {
  ManualClock clock;
  SynopsisChannel channel;
  TaskExecutionTracker tracker(
      0, &clock, [&channel](const Synopsis& s) { channel.push(s); });
  const LogPointId points[] = {7, 3, 9, 3};
  SynopsisBatch drained;
  // A drain every 100 tasks. The shard and the consumer swap storage, so
  // two rounds size both batches.
  const auto round = [&] {
    for (int i = 0; i < 100; ++i) {
      tracker.set_context(1);
      for (const LogPointId p : points) {
        clock.advance(10);
        tracker.on_log(p);
      }
      tracker.end_context();
    }
    drained.clear();
    channel.drain(drained);
    ASSERT_EQ(drained.size(), 100u);
  };
  round();
  round();
  const std::uint64_t before = g_allocations.load();
  for (int r = 0; r < 10; ++r) round();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(channel.pushed(), 1200u);
  EXPECT_EQ(drained[99].log_points.size(), 3u);  // points 3, 7, 9
}

}  // namespace
}  // namespace saad::core
