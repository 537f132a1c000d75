// LiveAnalyzer's status is what the admin plane's /statusz and /readyz read
// from their own thread while the consumer thread ingests, closes windows,
// swaps models and checkpoints. Under tsan this is the race check on that
// hand-off; everywhere it checks that every field a reader sees only moves
// forward and that the last read equals the engine's own counts.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "core/live_analyzer.h"
#include "testutil/synthetic_stream.h"
#include "testutil/temp_dir.h"

namespace saad::core {
namespace {

TEST(LiveAnalyzerStress, StatusReaderRacesIngestCloseAndCheckpoint) {
  std::vector<std::uint8_t> model_bytes;
  OutlierModel::train(testutil::make_trace(11, 20000, 0.002, 0.005))
      .save(model_bytes);
  // 60 000 synopses over 42 s of stream time: 40 closes at 1 s windows.
  const auto stream = testutil::make_trace(12, 60000, 0.05, 0.08);
  testutil::TempDir tmp;
  CheckpointDir dir(tmp.path("ck"));
  ASSERT_TRUE(dir.ensure());
  LiveAnalyzer::Options options;
  options.config.window = sec(1);
  options.checkpoints = &dir;
  options.checkpoint_every = 8;
  LiveAnalyzer engine(*OutlierModel::load(model_bytes), model_bytes,
                      std::move(options));

  // Every field, read on its own, only moves forward.
  const auto read = [&engine] {
    const LiveStatus& s = engine.status();
    return std::array<std::uint64_t, 6>{
        s.ingested.load(),
        static_cast<std::uint64_t>(s.watermark_us.load()),
        s.close_barriers.load(),
        s.verdicts.load(),
        s.model_epoch.load(),
        s.checkpoint_sequence.load()};
  };
  std::atomic<bool> done{false};
  std::uint64_t reads = 0, backwards = 0;
  std::array<std::uint64_t, 6> last{};
  std::thread reader([&] {
    for (bool more = true; more;) {
      more = !done.load(std::memory_order_acquire);
      const auto now = read();
      for (std::size_t f = 0; f < now.size(); ++f)
        if (now[f] < last[f]) ++backwards;
      last = now;
      ++reads;
    }
  });

  constexpr std::size_t kBatch = 32;
  for (std::size_t i = 0; i < stream.size(); i += kBatch) {
    engine.ingest(std::span(stream).subspan(
        i, std::min(kBatch, stream.size() - i)));
    if (i % (kBatch * 100) == 0) engine.capture();
    if (i % (kBatch * 500) == 0) engine.stage_model(model_bytes);
  }
  engine.finish();
  engine.checkpoint("shutdown");
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(reads, 0u);
  EXPECT_EQ(backwards, 0u);
  EXPECT_EQ(last, read());  // the reader's final pass saw the end state
  EXPECT_EQ(last[0], stream.size());
  EXPECT_GE(last[2], 30u);  // close barriers
  EXPECT_EQ(last[3], engine.verdicts().size());
  EXPECT_EQ(last[4], engine.capture().model_epoch);
  EXPECT_GE(last[5], 5u);  // checkpoint sequence
  EXPECT_GT(engine.status().checkpoint_wall_us.load(), 0);
}

}  // namespace
}  // namespace saad::core
