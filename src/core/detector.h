// Windowed anomaly detector (paper §3.3.3): periodically applies statistical
// tests to the synopsis stream.
//
// Per window, per (host, stage):
//  * FLOW anomaly when a never-seen signature appears, or a one-sided
//    proportion t-test (alpha = 0.001) rejects "flow-outlier proportion <=
//    training proportion";
//  * PERFORMANCE anomaly when, for any signature of the stage with a valid
//    duration threshold, the same test rejects "performance-outlier
//    proportion <= that signature's training proportion".
//
// Anomalies are keyed (window, host, stage, kind) — exactly the marks on the
// paper's Fig. 9/10 timelines.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/model.h"
#include "stats/tests.h"

namespace saad::core {

struct DetectorConfig {
  UsTime window = kUsPerMin;  // detection period
  double alpha = stats::kDefaultAlpha;
  stats::ProportionTestKind test_kind = stats::ProportionTestKind::kTTest;
  /// Minimum tasks for a proportion test in a window (below: exact binomial).
  std::uint64_t min_n = 20;
  /// When true, a single never-seen signature immediately raises a flow
  /// anomaly (the paper's condition ii).
  bool new_signature_is_anomaly = true;
  /// Extension (not in the paper): Bonferroni-correct alpha by the number
  /// of hypothesis tests run in the window. The paper tests every
  /// (host, stage) and every (host, stage, signature) each period at a flat
  /// alpha = 0.001; with hundreds of simultaneous tests that compounds —
  /// the correction trades a little sensitivity for a familywise error
  /// bound. See the `ablation_tests` bench.
  bool bonferroni = false;
  /// Unused: the analyzer is serial. Kept only for code that still sets it.
  std::size_t analyzer_threads = 1;
};

enum class AnomalyKind : std::uint8_t { kFlow, kPerformance };

struct Anomaly {
  std::size_t window = 0;  // index: [window * config.window, +config.window)
  UsTime window_start = 0;
  HostId host = 0;
  StageId stage = kInvalidStage;
  AnomalyKind kind = AnomalyKind::kFlow;
  bool due_to_new_signature = false;  // flow anomalies only
  double p_value = 1.0;
  double proportion = 0.0;        // observed outlier proportion in the window
  double train_proportion = 0.0;  // training baseline it was tested against
  std::uint64_t n = 0;            // tasks considered
  std::uint64_t outliers = 0;     // outlier tasks among them
  Signature example_signature;    // a representative outlier/new signature
};

class AnomalyDetector {
 public:
  AnomalyDetector(const OutlierModel* model, DetectorConfig config = {});

  AnomalyDetector(const AnomalyDetector&) = delete;
  AnomalyDetector& operator=(const AnomalyDetector&) = delete;

  /// Buckets the synopsis into its window (by task start time). Synopses may
  /// arrive out of order within open windows; one whose window already
  /// closed is counted in the oldest open window instead. Once a window
  /// holds a key's signature, ingesting it again allocates nothing.
  void ingest(SynopsisView synopsis);

  /// Closes every window that ends at or before `now` and returns its
  /// anomalies. A closed window's slots wait for the next window to open, so
  /// once the stream's keys and signatures have been seen, a close that
  /// raises no verdict allocates nothing.
  std::vector<Anomaly> advance_to(UsTime now);

  /// Closes all remaining windows and frees the waiting slots.
  std::vector<Anomaly> finish();

  const DetectorConfig& config() const { return config_; }
  std::uint64_t ingested() const { return ingested_; }
  /// Index of the oldest window a future synopsis can still land in.
  std::size_t next_window_to_close() const { return next_window_to_close_; }
  /// (window index, synopses it holds) for each open window, ascending.
  std::vector<std::pair<std::size_t, std::uint64_t>> open_window_synopses()
      const;

  // ---- Warm-restart state (checkpoint.h) -----------------------------------
  // The detector's only mutable state is the open-window tallies plus the
  // close cursor; both serialize to a canonical byte string (windows
  // ascending, keys by (host, stage), signatures in Signature order with
  // known and never-seen ones merged), so save -> restore -> save
  // round-trips bit-identically and two detectors with equal state encode
  // equal bytes.

  /// Appends every open window's per-(host, stage) and per-signature tallies,
  /// the close cursor, and the ingest count to `out`.
  void save_state(std::vector<std::uint8_t>& out) const;

  /// Replaces the detector's state with one produced by save_state(). False
  /// on malformed input, leaving the detector unchanged. The model is not
  /// part of the state: the caller restores it first and constructs the
  /// detector over it.
  bool restore_state(std::span<const std::uint8_t> in);

  /// Points classification at a new model. Only legal at a window boundary
  /// (no ingest since the last advance_to/finish on the windows the swap
  /// should not affect is *not* required — open windows were classified at
  /// ingest time under the old model and close with those tallies; only
  /// synopses ingested after the rebind see the new model). Signature ids
  /// belong to a model, so open windows' tallies are re-keyed by signature
  /// value; the old model must still be alive during the call. AnalyzerPool
  /// applies staged swaps here, right after a window close.
  void rebind_model(const OutlierModel* model);

 private:
  struct SigWindowStats {
    std::uint64_t n = 0;
    std::uint64_t perf_outliers = 0;
    bool perf_applicable = false;
  };
  /// Tally of a signature the model knows, by its id in the stage's table.
  struct KnownTally {
    SignatureId id = kNoSignature;
    SigWindowStats stats;
  };
  /// What only signatures the model lacks touch: their tallies by value,
  /// the never-seen ones, and a first flow outlier the model lacks.
  struct UnseenStats {
    std::vector<std::pair<Signature, SigWindowStats>> tallies;
    std::vector<Signature> new_signatures;  // distinct, first-seen order
    Signature example;
  };
  /// One (window, host, stage). Only the signatures the key saw in the
  /// window are tallied: the model's by id (sorted, hence in Signature
  /// order), the others by value out of line, so that a slot of known
  /// traffic stays small. A slot outlives its window: the next window to
  /// open reuses it, clearing it at first touch.
  struct StageWindowStats {
    bool open = false;  // the window holds this key; else the tallies are stale
    // The first flow outlier: a model id, or else the value in unseen.
    SignatureId example_id = kNoSignature;
    std::uint64_t n = 0;
    std::uint64_t flow_outliers = 0;
    std::vector<KnownTally> known;
    std::unique_ptr<UnseenStats> unseen;  // null until the slot needs it
  };
  using Window = std::vector<StageWindowStats>;  // indexed by key
  struct OpenWindow {
    std::size_t index = 0;
    Window slots;
  };
  /// A (host, stage) seen so far and its stage model under model_ (nullptr:
  /// a stage the model has never seen). Keys are numbered densely in
  /// first-seen order.
  struct Key {
    HostId host = 0;
    StageId stage = kInvalidStage;
    const StageModel* model = nullptr;
  };

  std::uint32_t key_index(HostId host, StageId stage);
  /// The window's slots, opening it on a spare if needed.
  Window& open_window(std::size_t index);
  /// The window's tallies for `key`, opening the window if needed.
  StageWindowStats& slot(std::size_t window, std::uint32_t key);
  static const Signature& example_of(const StageWindowStats& stats,
                                     const StageModel* model);
  /// The slot's out-of-line part, created on first use.
  static UnseenStats& unseen_of(StageWindowStats& stats);
  /// The tally of a signature in `stats`, created empty on first sight: by
  /// `id` when the stage model knows it, else by `value`.
  static SigWindowStats& tally(StageWindowStats& stats, SignatureId id,
                               const Signature& value);
  /// Appends the window's anomalies to `out`.
  void close_window(std::size_t index, const Window& window,
                    std::vector<Anomaly>& out);

  const OutlierModel* model_;
  DetectorConfig config_;
  std::vector<OpenWindow> open_windows_;  // ascending index; a handful
  std::vector<Window> spare_windows_;     // closed, for the next to open
  std::size_t next_window_to_close_ = 0;
  std::uint64_t ingested_ = 0;

  std::vector<Key> keys_;
  std::vector<std::uint32_t> key_order_;  // key indices by (host, stage)
  std::vector<std::uint32_t> key_slots_;  // open addressing: key index + 1
  // The window the last synopsis landed in (null after windows close).
  std::size_t last_window_index_ = 0;
  Window* last_window_ = nullptr;
};

}  // namespace saad::core
