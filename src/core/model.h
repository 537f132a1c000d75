// Trained outlier model (paper §3.3.2): built offline from a fault-free trace
// of task synopses, then queried online by the detector.
//
// Training is deliberately limited to counting and percentiles:
//  * per stage, signatures are ranked by task share; signatures below the
//    share threshold (default 1%, i.e. the paper's "99th percentile rank")
//    are *flow outliers*;
//  * per (stage, signature), the duration_quantile (default 99th percentile)
//    of task durations is the *performance outlier* threshold;
//  * signatures whose duration distribution cannot support that threshold
//    (k-fold cross-validated held-out outlier rate > unstable_factor x the
//    nominal tail) are discarded for performance detection.
//
// Training streams: ModelTrainer takes the trace a synopsis or a flat batch
// at a time (`saad_offline train` feeds it trace blocks), keeps one duration
// per task (8 bytes) in its (stage, signature) group and nothing else of the
// synopsis, and finish() takes every percentile by selection. Its memory
// grows with the number of durations and distinct signatures, not with the
// trace's encoded size or point lists.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/feature.h"

namespace saad::core {

struct TrainingConfig {
  /// Signatures accounting for less than this share of a stage's tasks are
  /// flow outliers (paper example: 99th-percentile rank == share < 1%).
  double flow_share_threshold = 0.01;

  /// Quantile of per-(stage, signature) durations used as the performance
  /// outlier threshold.
  double duration_quantile = 0.99;

  /// k for the cross-validated stability filter; k < 2 disables the filter.
  std::size_t kfold_k = 5;

  /// A signature is unstable (excluded from performance detection) when its
  /// mean held-out outlier rate exceeds unstable_factor x (1 - quantile).
  double unstable_factor = 2.0;

  /// Signatures with fewer training tasks than this are excluded from
  /// performance detection (too little data for a tail threshold).
  std::size_t min_signature_samples = 50;
};

struct SignatureStats {
  std::uint64_t task_count = 0;
  double share = 0.0;           // of the stage's training tasks
  bool flow_outlier = false;    // rare flow in training
  bool perf_applicable = false; // stable enough for duration thresholding
  UsTime duration_threshold = 0;
  double train_perf_outlier_rate = 0.0;  // empirical, measured on training
};

/// Dense per-stage signature id: a position in the stage's SignatureTable.
/// Ids belong to one model; another model numbers its signatures anew.
using SignatureId = std::uint32_t;
inline constexpr SignatureId kNoSignature = 0xFFFFFFFFu;

/// A stage's trained signatures, sorted in Signature order so that a table
/// position is a dense SignatureId and ascending ids are ascending
/// signatures. An open-addressing index over the point ids (LevelDB's
/// Hash(data, n, seed) mixing) finds a signature from a synopsis's point
/// list without building a Signature.
class SignatureTable {
 public:
  using Entry = std::pair<Signature, SignatureStats>;

  SignatureTable() = default;
  /// Sorts the entries; of repeated signatures the first one is kept.
  explicit SignatureTable(std::vector<Entry> entries);

  std::size_t size() const { return entries_.size(); }
  const Entry& operator[](SignatureId id) const { return entries_[id]; }
  std::vector<Entry>::const_iterator begin() const { return entries_.begin(); }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }

  /// Id of `signature`, or kNoSignature.
  SignatureId find(const Signature& signature) const;
  /// Id of the signature of a synopsis with these log points, or
  /// kNoSignature. Point lists that are not strictly ascending (unsorted, or
  /// a point repeated) go through Signature's sort-and-dedupe first.
  SignatureId find(std::span<const LogPointCount> points) const;

 private:
  /// Looks up the point list of length `n` whose i-th point is `at(i)`.
  template <typename PointAt>
  SignatureId probe(std::size_t n, PointAt at) const;

  std::vector<Entry> entries_;
  std::vector<SignatureId> slots_;  // power-of-two size; kNoSignature = empty
};

struct StageModel {
  StageId stage = kInvalidStage;
  std::uint64_t task_count = 0;
  double train_flow_outlier_rate = 0.0;
  SignatureTable signatures;
};

/// How the model classifies a single task.
struct Classification {
  bool known_stage = false;     // stage present in training
  bool new_signature = false;   // never seen in training (strong flow signal)
  bool flow_outlier = false;    // rare-in-training signature (incl. new)
  bool perf_applicable = false; // duration test meaningful for this signature
  bool perf_outlier = false;    // duration above the trained threshold
};

class OutlierModel {
 public:
  /// Trains from a fault-free trace: ModelTrainer::add() per synopsis, then
  /// finish(). Signatures are pooled across hosts: the statistical strength
  /// comes from comparing the many instances of the same stage within and
  /// across nodes (paper §2).
  static OutlierModel train(std::span<const Synopsis> trace,
                            const TrainingConfig& config = {});

  Classification classify(const Feature& feature) const;

  /// The same verdict from an already resolved lookup: the task's stage
  /// model (nullptr: a stage training never saw) and its signature's id in
  /// that stage's table (kNoSignature: a signature training never saw).
  static Classification classify(const StageModel* stage, SignatureId id,
                                 UsTime duration);

  const StageModel* stage_model(StageId stage) const;
  const TrainingConfig& config() const { return config_; }
  std::size_t num_stages() const { return stages_.size(); }

  /// Total training tasks across stages.
  std::uint64_t trained_tasks() const { return trained_tasks_; }

  // ---- Persistence ----------------------------------------------------------
  // Train once (e.g. from an overnight fault-free trace), deploy many times:
  // the serialized model is a few KB and loads in microseconds.

  /// Appends a self-contained binary encoding of the model to `out`. Stages
  /// go in ascending id, so equal models save to equal bytes whatever order
  /// training met their stages in.
  void save(std::vector<std::uint8_t>& out) const;

  /// Decodes a model produced by save(). nullopt on malformed input.
  static std::optional<OutlierModel> load(std::span<const std::uint8_t> in);

 private:
  friend class ModelTrainer;

  TrainingConfig config_;
  std::map<StageId, StageModel> stages_;  // ascending id: save() order
  std::uint64_t trained_tasks_ = 0;
};

/// The one training path: accumulates a fault-free trace in stream order and
/// builds the model from it. Per stage, each synopsis's point list is
/// interned with SignatureTable's hash probe (a list that is not strictly
/// ascending is first sorted and deduplicated, as Signature::from does), so
/// no Signature is built per synopsis, and the task's duration is appended
/// to its (stage, signature) group. Adding a synopsis whose signature the
/// trainer already holds allocates only when its group's durations grow.
class ModelTrainer {
 public:
  void add(SynopsisView synopsis);
  void add(const SynopsisBatch& batch);

  /// The model over everything added. Every order statistic is taken by
  /// selection over one reused buffer; the thresholds, rates and flags are
  /// the doubles a full sort per group would give.
  OutlierModel finish(const TrainingConfig& config = {}) const;

 private:
  struct Group {
    Signature signature;
    std::vector<double> durations;  // in stream order
  };
  struct Stage {
    StageId id = kInvalidStage;
    std::vector<Group> groups;
    std::vector<SignatureId> slots;  // power-of-two size; kNoSignature = empty
  };

  Stage& stage(StageId id);
  /// The group of the point list of length `n` whose i-th point is `at(i)`,
  /// which must be strictly ascending; created when new.
  template <typename PointAt>
  Group& intern(Stage& stage, std::size_t n, PointAt at);

  std::vector<Stage> stages_;               // in order of first appearance
  std::vector<std::uint32_t> stage_index_;  // StageId -> stages_ position + 1
  std::vector<LogPointId> canonical_;       // an unsorted list, sorted
};

}  // namespace saad::core
