#include "core/model.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"
#include "stats/kfold.h"

namespace saad::core {

namespace {

// LevelDB's Hash(data, n, seed) mixing, one point id per step.
constexpr std::uint32_t kHashSeed = 0xbc9f1d34u;
constexpr std::uint32_t kHashMul = 0xc6a4a793u;

template <typename PointAt>
std::uint32_t hash_points(std::size_t n, PointAt at) {
  std::uint32_t h = kHashSeed ^ (static_cast<std::uint32_t>(n) * kHashMul);
  for (std::size_t i = 0; i < n; ++i) {
    h += at(i);
    h *= kHashMul;
    h ^= h >> 16;
  }
  return h;
}

/// The open-addressing probe of SignatureTable and ModelTrainer: the slot of
/// `slots` (a power of two, not full) that holds the id whose point list
/// `points_of(id)` equals the list of length `n` whose i-th point is
/// `at(i)`, or else the empty slot where that list belongs.
template <typename PointsOf, typename PointAt>
std::size_t probe_slot(const std::vector<SignatureId>& slots,
                       PointsOf points_of, std::size_t n, PointAt at) {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t slot = hash_points(n, at) & mask;; slot = (slot + 1) & mask) {
    const SignatureId id = slots[slot];
    if (id == kNoSignature) return slot;
    const auto& points = points_of(id);
    if (points.size() != n) continue;
    std::size_t i = 0;
    while (i < n && points[i] == at(i)) ++i;
    if (i == n) return slot;
  }
}

}  // namespace

SignatureTable::SignatureTable(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) { return a.first < b.first; });
  entries_.erase(std::unique(entries_.begin(), entries_.end(),
                             [](const Entry& a, const Entry& b) {
                               return a.first == b.first;
                             }),
                 entries_.end());
  if (entries_.empty()) return;
  std::size_t capacity = 2;
  while (capacity < 2 * entries_.size()) capacity *= 2;  // load <= 1/2
  slots_.assign(capacity, kNoSignature);
  for (SignatureId id = 0; id < entries_.size(); ++id) {
    const auto& points = entries_[id].first.points();
    std::size_t slot = hash_points(points.size(),
                                   [&](std::size_t i) { return points[i]; }) &
                       (capacity - 1);
    while (slots_[slot] != kNoSignature) slot = (slot + 1) & (capacity - 1);
    slots_[slot] = id;
  }
}

template <typename PointAt>
SignatureId SignatureTable::probe(std::size_t n, PointAt at) const {
  if (slots_.empty()) return kNoSignature;
  const auto points_of = [&](SignatureId id) -> const auto& {
    return entries_[id].first.points();
  };
  return slots_[probe_slot(slots_, points_of, n, at)];
}

SignatureId SignatureTable::find(const Signature& signature) const {
  const auto& points = signature.points();
  return probe(points.size(), [&](std::size_t i) { return points[i]; });
}

SignatureId SignatureTable::find(std::span<const LogPointCount> points) const {
  for (std::size_t i = 1; i < points.size(); ++i)
    if (points[i].point <= points[i - 1].point)
      return find(Signature::from(points));
  return probe(points.size(), [&](std::size_t i) { return points[i].point; });
}

OutlierModel OutlierModel::train(std::span<const Synopsis> trace,
                                 const TrainingConfig& config) {
  ModelTrainer trainer;
  for (const Synopsis& synopsis : trace) trainer.add(synopsis);
  return trainer.finish(config);
}

ModelTrainer::Stage& ModelTrainer::stage(StageId id) {
  if (id >= stage_index_.size()) stage_index_.resize(id + std::size_t{1}, 0);
  std::uint32_t& index = stage_index_[id];
  if (index == 0) {
    stages_.push_back({});
    stages_.back().id = id;
    index = static_cast<std::uint32_t>(stages_.size());
  }
  return stages_[index - 1];
}

template <typename PointAt>
ModelTrainer::Group& ModelTrainer::intern(Stage& stage, std::size_t n,
                                          PointAt at) {
  const auto points_of = [&](SignatureId id) -> const auto& {
    return stage.groups[id].signature.points();
  };
  if (!stage.slots.empty()) {
    const SignatureId id = stage.slots[probe_slot(stage.slots, points_of, n, at)];
    if (id != kNoSignature) return stage.groups[id];
  }
  // A new signature. Keep the table at most half full, as SignatureTable's.
  if (2 * (stage.groups.size() + 1) > stage.slots.size()) {
    stage.slots.assign(std::max<std::size_t>(8, 2 * stage.slots.size()),
                       kNoSignature);
    for (SignatureId id = 0; id < stage.groups.size(); ++id) {
      const auto& points = points_of(id);
      stage.slots[probe_slot(stage.slots, points_of, points.size(),
                             [&](std::size_t i) { return points[i]; })] = id;
    }
  }
  std::vector<LogPointId> points(n);
  for (std::size_t i = 0; i < n; ++i) points[i] = at(i);
  stage.slots[probe_slot(stage.slots, points_of, n, at)] =
      static_cast<SignatureId>(stage.groups.size());
  stage.groups.push_back({Signature(std::move(points)), {}});
  return stage.groups.back();
}

void ModelTrainer::add(SynopsisView synopsis) {
  Stage& st = stage(synopsis.stage);
  const auto points = synopsis.log_points;
  std::size_t i = 1;
  while (i < points.size() && points[i - 1].point < points[i].point) ++i;
  Group* group = nullptr;
  if (i >= points.size()) {
    group = &intern(st, points.size(),
                    [&](std::size_t k) { return points[k].point; });
  } else {
    // Unsorted or repeated points: Signature::from's sort-and-dedupe.
    canonical_.clear();
    for (const auto& lp : points) canonical_.push_back(lp.point);
    std::sort(canonical_.begin(), canonical_.end());
    canonical_.erase(std::unique(canonical_.begin(), canonical_.end()),
                     canonical_.end());
    group = &intern(st, canonical_.size(),
                    [&](std::size_t k) { return canonical_[k]; });
  }
  group->durations.push_back(static_cast<double>(synopsis.duration));
}

void ModelTrainer::add(const SynopsisBatch& batch) {
  for (const SynopsisView synopsis : batch) add(synopsis);
}

OutlierModel ModelTrainer::finish(const TrainingConfig& config) const {
  OutlierModel model;
  model.config_ = config;
  std::vector<double> scratch;  // every selection's working copy
  for (const Stage& stage : stages_) {
    StageModel sm;
    sm.stage = stage.id;
    for (const Group& group : stage.groups)
      sm.task_count += group.durations.size();

    std::uint64_t flow_outlier_tasks = 0;
    std::vector<SignatureTable::Entry> entries;
    entries.reserve(stage.groups.size());
    for (const Group& group : stage.groups) {
      const auto& durations = group.durations;
      SignatureStats ss;
      ss.task_count = durations.size();
      ss.share = static_cast<double>(ss.task_count) /
                 static_cast<double>(sm.task_count);
      ss.flow_outlier = ss.share < config.flow_share_threshold;
      if (ss.flow_outlier) flow_outlier_tasks += ss.task_count;

      // Performance threshold: quantile of training durations, gated by
      // sample size and the cross-validated stability filter.
      if (ss.task_count >= config.min_signature_samples) {
        scratch.assign(durations.begin(), durations.end());
        const double threshold =
            stats::percentile_select(scratch, config.duration_quantile);
        // A NaN threshold (no sample) must never become a UsTime: such a
        // signature stays out of performance detection (perf_applicable
        // keeps its false default) while remaining in the flow model.
        if (std::isfinite(threshold)) {
          ss.duration_threshold = static_cast<UsTime>(threshold);
          const auto above = std::count_if(
              durations.begin(), durations.end(),
              [&](double d) { return d > threshold; });
          ss.train_perf_outlier_rate =
              static_cast<double>(above) / static_cast<double>(ss.task_count);
          ss.perf_applicable =
              config.kfold_k < 2 ||
              stats::kfold_quantile_stability(durations, config.kfold_k,
                                              config.duration_quantile,
                                              config.unstable_factor, scratch)
                  .stable;
        }
      }
      entries.emplace_back(group.signature, ss);
    }
    sm.signatures = SignatureTable(std::move(entries));
    sm.train_flow_outlier_rate =
        sm.task_count > 0 ? static_cast<double>(flow_outlier_tasks) /
                                static_cast<double>(sm.task_count)
                          : 0.0;
    model.trained_tasks_ += sm.task_count;
    model.stages_.emplace(stage.id, std::move(sm));
  }
  return model;
}

Classification OutlierModel::classify(const Feature& feature) const {
  const StageModel* sm = stage_model(feature.stage);
  return classify(sm, sm ? sm->signatures.find(feature.signature) : kNoSignature,
                  feature.duration);
}

Classification OutlierModel::classify(const StageModel* stage, SignatureId id,
                                      UsTime duration) {
  Classification c;
  c.known_stage = stage != nullptr;
  if (id == kNoSignature) {
    // A stage or signature never seen in training: a new flow.
    c.new_signature = true;
    c.flow_outlier = true;
    return c;
  }
  const SignatureStats& ss = stage->signatures[id].second;
  c.flow_outlier = ss.flow_outlier;
  c.perf_applicable = ss.perf_applicable;
  if (ss.perf_applicable) c.perf_outlier = duration > ss.duration_threshold;
  return c;
}

const StageModel* OutlierModel::stage_model(StageId stage) const {
  const auto it = stages_.find(stage);
  return it == stages_.end() ? nullptr : &it->second;
}

}  // namespace saad::core
