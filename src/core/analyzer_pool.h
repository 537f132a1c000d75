// The analyzer that LiveAnalyzer (behind `detect` and `serve`) and Monitor
// drive: one AnomalyDetector plus what a long-lived consumer needs on top of
// it — a model swap staged for the next window boundary, the model epoch,
// the close cursor a restore recovered, and the saad_analyzer_* metrics.
//
// Like the paper's centralized analyzer it is serial: every call runs on the
// one thread that drains the synopsis channel (DESIGN.md §6 says why there is
// no analyzer thread pool). The class keeps its name, and threads(), only for
// callers that still compile against them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/detector.h"

namespace saad::core {

class AnalyzerPool {
 public:
  /// config.analyzer_threads is ignored.
  AnalyzerPool(const OutlierModel* model, DetectorConfig config = {});

  AnalyzerPool(const AnalyzerPool&) = delete;
  AnalyzerPool& operator=(const AnalyzerPool&) = delete;

  void ingest(SynopsisView synopsis);

  /// Closes every window ending at or before `now` and returns its anomalies
  /// in (window, host, stage, kind) order, then applies a staged model swap.
  std::vector<Anomaly> advance_to(UsTime now);

  /// Closes all remaining windows, then applies a staged model swap.
  std::vector<Anomaly> finish();

  const DetectorConfig& config() const { return detector_.config(); }
  /// Always 1: the analyzer is serial.
  std::size_t threads() const { return 1; }

  // ---- Warm-restart state (checkpoint.h) -----------------------------------

  /// The detector's canonical state (AnomalyDetector::save_state).
  void save_state(std::vector<std::uint8_t>& out) const {
    detector_.save_state(out);
  }

  /// Restores state produced by save_state(). Call before the first
  /// ingest(); false on malformed input. The model is not part of the state —
  /// construct the analyzer over the restored model first. The model epoch
  /// (and its gauge) continues from `model_epoch`, the epoch recorded next to
  /// the state (a checkpoint's).
  bool restore_state(std::span<const std::uint8_t> in,
                     std::uint64_t model_epoch = 0);

  /// Close cursor recovered by the last restore_state() (0 before): the
  /// oldest window index still open, for resuming watermark bookkeeping.
  std::size_t restored_next_window() const { return restored_next_window_; }

  /// (window index, synopses it holds) for each open window, ascending.
  std::vector<std::pair<std::size_t, std::uint64_t>> open_window_synopses()
      const {
    return detector_.open_window_synopses();
  }

  /// Stages `model` to replace the current one. The swap applies at the end
  /// of the next advance_to()/finish() — a window boundary — so every
  /// verdict stream position sees exactly one model. `model` must stay alive
  /// until the analyzer is destroyed or swapped again; the previously bound
  /// model may be freed once the applying advance_to()/finish() returns.
  /// Staging twice before a boundary keeps only the newest model (one epoch
  /// bump).
  void swap_model(const OutlierModel* model);

  /// Applied model swaps so far (construction model = epoch 0).
  std::uint64_t model_epoch() const { return model_epoch_; }

 private:
  /// Rebinds the detector to the staged model, if any.
  void apply_pending_model();

  AnomalyDetector detector_;

  // Hot model reload: staged by swap_model(), applied at the next window
  // boundary by apply_pending_model().
  const OutlierModel* pending_model_ = nullptr;
  std::uint64_t model_epoch_ = 0;
  std::size_t restored_next_window_ = 0;
};

}  // namespace saad::core
