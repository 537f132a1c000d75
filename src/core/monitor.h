// Monitor: the end-to-end SAAD facade (Fig. 5). Wires per-host task execution
// trackers through the synopsis channel into either a training trace capture
// or the armed anomaly detector.
//
// Lifecycle:
//   Monitor mon(&registry, &clock);
//   auto& tracker = mon.tracker(host);      // attach to the host's Logger
//   mon.start_training();
//   ... run fault-free workload ...
//   mon.train(training_config);             // builds the outlier model
//   mon.arm(detector_config);               // switch to detection
//   ... run workload; periodically: auto anomalies = mon.poll(clock.now());
//   auto tail = mon.finish();
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/analyzer_pool.h"
#include "core/channel.h"
#include "core/detector.h"
#include "core/tracker.h"

namespace saad::core {

class LogRegistry;
class TraceWriter;

class Monitor {
 public:
  Monitor(const LogRegistry* registry, const Clock* clock);

  /// Tracker for `host`, created on first use. Stable address; attach it to
  /// the host's Logger(s) via Logger::set_tracker.
  TaskExecutionTracker& tracker(HostId host);

  /// Start capturing the fault-free training trace.
  void start_training();

  /// Start streaming every subsequent synopsis straight to `writer` (the
  /// crash-safe spill path: O(block) memory instead of an in-RAM trace, and
  /// everything up to the writer's last flush survives a crash). The writer
  /// must outlive recording; like start_training, anything queued beforehand
  /// is discarded. Synopses are handed to the writer on each poll().
  void start_recording(TraceWriter* writer);

  /// Drain outstanding synopses to the writer and seal the current block.
  /// Leaves the monitor idle; finalizing the writer stays with the caller.
  /// Returns the writer's health.
  bool stop_recording();

  /// Drain outstanding synopses into the training trace and build the model.
  /// Training on an empty trace is valid and yields an empty model (zero
  /// stages): once armed, every task then hits an unknown stage and raises a
  /// new-signature flow anomaly — loud, by design, rather than silent.
  void train(const TrainingConfig& config = {});

  /// Provide an externally trained model instead.
  void set_model(OutlierModel model);
  const OutlierModel* model() const { return model_.get(); }

  /// Switch to detection. Requires a trained model.
  void arm(const DetectorConfig& config = {});
  bool armed() const { return analyzer_ != nullptr; }

  /// Drain the channel; when armed, ingest and close windows ending <= now.
  /// When training, append to the training trace instead. When idle (before
  /// start_training / arm), queued synopses are drained and *discarded* —
  /// the same policy arm() applies to synopses produced between training and
  /// arming — and an empty list is returned.
  std::vector<Anomaly> poll(UsTime now);

  /// Close all remaining windows. May be called repeatedly: each call closes
  /// the windows open at that point, so a second finish() with no new
  /// synopses in between returns an empty list. Returns empty when unarmed.
  std::vector<Anomaly> finish();

  // ---- Warm-restart state (checkpoint.h) -----------------------------------

  /// Serializes the armed detection plane: the model, the detector config,
  /// and every open window (AnomalyDetector::save_state). False unless armed.
  /// Trackers and the channel are not captured — in-flight tasks at crash
  /// time never produced a synopsis, so there is nothing to restore.
  bool save_state(std::vector<std::uint8_t>& out) const;

  /// Rebuilds the detection plane from save_state() bytes: loads the model,
  /// arms with the stored config, and restores the open windows. The config's
  /// thread-count field is a format leftover: save writes 1 and restore
  /// ignores it. False on malformed input, leaving the monitor unchanged.
  /// Like arm(), discards anything queued beforehand.
  bool restore_state(std::span<const std::uint8_t> in);

  const std::vector<Synopsis>& training_trace() const {
    return training_trace_;
  }
  const SynopsisChannel& channel() const { return channel_; }
  const LogRegistry& registry() const { return *registry_; }

 private:
  enum class Mode { kIdle, kTraining, kRecording, kDetecting };

  const LogRegistry* registry_;
  const Clock* clock_;
  SynopsisChannel channel_;
  std::vector<std::unique_ptr<TaskExecutionTracker>> trackers_;  // by host
  std::vector<Synopsis> training_trace_;
  std::unique_ptr<OutlierModel> model_;
  std::unique_ptr<AnalyzerPool> analyzer_;
  TraceWriter* trace_writer_ = nullptr;  // non-null iff mode_ == kRecording
  Mode mode_ = Mode::kIdle;
};

}  // namespace saad::core
