// The live analyzer: the one consumer that turns a synopsis stream into
// windowed verdicts (paper §3.3, Fig. 5), behind `saad_offline detect` and
// `serve`. It owns the AnomalyDetector and the whole model lifecycle — the
// active model and its bytes, a staged replacement, the model epoch — plus
// the verdicts, checkpoints, and a status any thread may read; all else runs
// on the thread that drains the channel (DESIGN.md §6).
//
// Lifecycle: construct over a model, load_registry(), optionally resume()
// from a checkpoint before the first ingest(), then ingest() batches until
// the stream ends and finish(). stage_model() may come at any point; the
// staged model applies at the next window close.
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
//
// The detector is the one record of which windows have closed and what they
// held: its cursor, which passes windows no synopsis opened too, sets the
// next close point and its tallies the `[stats]` lines, and both ride in the
// checkpoint, so a resumed engine prints no `[stats]` line twice.
//
// The rule assumes a stream in end-time order, up to ordinary lateness: a
// trace file, or the server's channel, which one Producer fills in arrival
// order. A drain of several producer threads' shards is not one: it hands
// over one shard whole before the next, so the newest synopsis of the first
// shard would close windows that older synopses of the next still belong
// to. Monitor, which drains tracker threads, closes by its caller's clock
// instead (core/monitor.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/checkpoint.h"
#include "core/detector.h"
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

  /// Stages a model for the next window close, which rebinds the detector to
  /// it, bumps the model epoch and retires the old model; staging again
  /// before that close keeps only the newest (one epoch bump). Null if the
  /// bytes won't decode.
  const OutlierModel* stage_model(std::vector<std::uint8_t> model_bytes);

  /// A checkpoint but for the sequence and watermarks checkpoint() adds.
  Checkpoint capture() const;
  /// Captures into the engine's own Checkpoint, whose buffers keep their
  /// capacity from one call to the next, and writes it.
  bool checkpoint(const char* why);  // false: no directory or write failed

  /// The synopsis end time whose ingest closes the next window: the close
  /// rule fires once the watermark reaches it, and the watermark is always
  /// below it between ingest() calls, on a fresh engine and after resume()
  /// alike. `serve` blocks on its channel until a synopsis ending there is
  /// queued (SynopsisChannel::wait_for), so a window's verdicts come out as
  /// soon as the stream has passed its close point.
  UsTime next_close_at() const { return close_at_; }

  const std::vector<Anomaly>& verdicts() const { return verdicts_; }
  std::uint64_t ingested() const { return status_.ingested.load(); }
  const LogRegistry& registry() const { return registry_; }
  const LiveStatus& status() const { return status_; }

 private:
  /// Closes what the watermark has passed; true if a checkpoint fell due.
  bool close_ready_windows();
  /// Closes the windows that end by `now` (none given: all of them), applies
  /// a staged model, takes the verdicts, and prints a `[stats]` line for each
  /// window the detector's cursor passed, from its tallies before the close.
  void close_windows(std::optional<UsTime> now);
  /// capture() into `c`, reusing its buffers.
  void capture_into(Checkpoint& c) const;

  Options options_;
  std::unique_ptr<OutlierModel> model_;
  std::vector<std::uint8_t> model_bytes_;
  std::unique_ptr<OutlierModel> staged_model_;
  std::vector<std::uint8_t> staged_model_bytes_;
  LogRegistry registry_;
  std::vector<std::uint8_t> registry_bytes_;
  std::unique_ptr<AnomalyDetector> detector_;  // resume() rebuilds it
  std::vector<Anomaly> verdicts_;
  Checkpoint checkpoint_;       // what checkpoint() writes
  std::uint64_t consumed_ = 0;  // synopses ingested by this engine
  std::uint64_t next_sequence_ = 1;
  UsTime watermark_ = 0;  // newest synopsis end time
  UsTime close_at_ = 0;   // closes the detector's next_window_to_close()
  LiveStatus status_;
};

}  // namespace saad::core
