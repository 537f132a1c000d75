// The live analyzer: the one consumer that turns a synopsis stream into
// windowed verdicts (paper §3.3, Fig. 5), behind `saad_offline detect` and
// `serve`. Around an AnalyzerPool it owns the model and its bytes, a staged
// replacement, the verdicts, checkpoints, and a status any thread may read;
// all else runs on the thread that drains the channel (DESIGN.md §6).
//
// The close rule: after every synopsis it ingests, the engine closes the
// windows that end two windows behind the newest synopsis end time,
// whatever consumes the closes, so ordinary late arrivals still land in
// their own window and about four windows are open at a time; finish()
// closes the rest. The rule is one compare per synopsis, and checking it
// per synopsis rather than per call makes the verdicts independent of how
// the stream was cut into batches: `detect` ingests a trace block and
// `serve` a channel drain at a time, and both close windows exactly where
// one-at-a-time ingestion would.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/analyzer_pool.h"
#include "core/checkpoint.h"
#include "core/log_registry.h"

namespace saad::obs {
class SpanTracer;
}

namespace saad::core {

/// Published by the consumer as it goes, each field on its own.
struct LiveStatus {
  std::atomic<std::uint64_t> ingested{0};     // resumed synopses included
  std::atomic<std::int64_t> watermark_us{0};  // point of the last close
  std::atomic<std::uint64_t> close_barriers{0};  // closes since start
  std::atomic<std::uint64_t> verdicts{0};
  std::atomic<std::uint64_t> model_epoch{0};
  std::atomic<std::uint64_t> checkpoint_sequence{0};  // written or resumed
  std::atomic<std::int64_t> checkpoint_wall_us{0};    // 0: none written yet
};

class LiveAnalyzer {
 public:
  struct Options {
    DetectorConfig config;
    std::FILE* stats = nullptr;  // one `[stats]` line per closed window
    obs::SpanTracer* tracer = nullptr;  // stamps the consumer's span hops
    /// Serve's checkpoints, reported on stderr: one per checkpoint() call
    /// and one after each ingest() batch in which a `checkpoint_every`-th
    /// close (at least 1) fell.
    CheckpointDir* checkpoints = nullptr;
    std::uint64_t checkpoint_every = 1;
    /// The producer watermark checkpoints record (serve: the server's
    /// published count); unset, the synopses this engine ingested.
    std::function<std::uint64_t()> published;
  };

  /// An engine over `model`, whose encoding `model_bytes` checkpoints carry.
  LiveAnalyzer(OutlierModel model, std::vector<std::uint8_t> model_bytes,
               Options options);

  /// The dictionary for checkpoints and verdicts; false if it won't decode.
  bool load_registry(std::vector<std::uint8_t> bytes);

  /// Continues from `checkpoint` before the first ingest(): its model and
  /// registry, if any, replace the current ones, and all else carries on.
  /// Null, or why it does not fit (the engine is then unusable).
  const char* resume(const Checkpoint& checkpoint);

  /// Ingests `batch` one synopsis at a time, closing the windows the
  /// watermark has passed after each. Writes at most one checkpoint, after
  /// the batch, when a close in it made one due.
  void ingest(const SynopsisBatch& batch);
  /// The same for values, copied into a batch first.
  void ingest(std::span<const Synopsis> batch);
  void finish();  // closes every window still open

  /// Stages a model for the next window close; null if the bytes won't decode.
  const OutlierModel* stage_model(std::vector<std::uint8_t> model_bytes);

  /// A checkpoint but for the sequence and watermarks checkpoint() adds.
  Checkpoint capture() const;
  bool checkpoint(const char* why);  // false: no directory or write failed

  const std::vector<Anomaly>& verdicts() const { return verdicts_; }
  std::uint64_t ingested() const { return status_.ingested.load(); }
  const LogRegistry& registry() const { return registry_; }
  const LiveStatus& status() const { return status_; }

 private:
  /// Closes what the watermark has passed; true if a checkpoint fell due.
  bool close_ready_windows();
  /// Takes a close's verdicts and retires the model the close swapped out.
  void absorb(std::vector<Anomaly> closed);
  void print_window(std::size_t w);

  Options options_;
  std::unique_ptr<OutlierModel> model_;
  std::vector<std::uint8_t> model_bytes_;
  std::unique_ptr<OutlierModel> staged_model_;
  std::vector<std::uint8_t> staged_model_bytes_;
  LogRegistry registry_;
  std::vector<std::uint8_t> registry_bytes_;
  std::unique_ptr<AnalyzerPool> pool_;
  std::vector<Anomaly> verdicts_;
  std::uint64_t consumed_ = 0;  // synopses ingested by this engine
  std::uint64_t next_sequence_ = 1;
  UsTime watermark_ = 0;         // newest synopsis end time
  std::size_t next_window_ = 0;  // oldest window not yet closed
  UsTime close_at_ = 0;          // the watermark that closes next_window_
  struct WindowCounts { std::size_t synopses = 0, flow = 0, perf = 0; };
  std::map<std::size_t, WindowCounts> window_counts_;  // for [stats]
  LiveStatus status_;
};

}  // namespace saad::core
