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
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = hash_points(n, at) & mask;; slot = (slot + 1) & mask) {
    const SignatureId id = slots_[slot];
    if (id == kNoSignature) return kNoSignature;
    const auto& points = entries_[id].first.points();
    if (points.size() != n) continue;
    std::size_t i = 0;
    while (i < n && points[i] == at(i)) ++i;
    if (i == n) return id;
  }
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
  OutlierModel model;
  model.config_ = config;

  // Pass 1: group durations per (stage, signature).
  struct Group {
    std::vector<double> durations;
  };
  std::unordered_map<StageId,
                     std::unordered_map<Signature, Group, SignatureHash>>
      groups;
  for (const auto& synopsis : trace) {
    const Feature f = make_feature(synopsis);
    groups[f.stage][f.signature].durations.push_back(
        static_cast<double>(f.duration));
  }

  for (auto& [stage_id, sig_groups] : groups) {
    StageModel sm;
    sm.stage = stage_id;
    for (const auto& [sig, group] : sig_groups)
      sm.task_count += group.durations.size();

    std::uint64_t flow_outlier_tasks = 0;
    std::vector<SignatureTable::Entry> entries;
    entries.reserve(sig_groups.size());
    for (auto& [sig, group] : sig_groups) {
      SignatureStats ss;
      ss.task_count = group.durations.size();
      ss.share = static_cast<double>(ss.task_count) /
                 static_cast<double>(sm.task_count);
      ss.flow_outlier = ss.share < config.flow_share_threshold;
      if (ss.flow_outlier) flow_outlier_tasks += ss.task_count;

      // Performance threshold: quantile of training durations, gated by
      // sample size and the cross-validated stability filter.
      if (ss.task_count >= config.min_signature_samples &&
          !group.durations.empty()) {
        std::vector<double> sorted = group.durations;
        std::sort(sorted.begin(), sorted.end());
        const double threshold =
            stats::percentile_sorted(sorted, config.duration_quantile);
        // percentile_sorted returns NaN for an empty sample (ruled out
        // above, but a NaN threshold must never become a UsTime): such a
        // signature stays out of performance detection (perf_applicable
        // keeps its false default) while remaining in the flow model.
        if (std::isfinite(threshold)) {
          ss.duration_threshold = static_cast<UsTime>(threshold);

          std::uint64_t above = 0;
          for (double d : sorted)
            if (d > threshold) ++above;
          ss.train_perf_outlier_rate =
              static_cast<double>(above) / static_cast<double>(ss.task_count);

          if (config.kfold_k >= 2) {
            const auto stability = stats::kfold_quantile_stability(
                group.durations, config.kfold_k, config.duration_quantile,
                config.unstable_factor);
            ss.perf_applicable = stability.stable;
          } else {
            ss.perf_applicable = true;
          }
        }
      }
      entries.emplace_back(sig, ss);
    }
    sm.signatures = SignatureTable(std::move(entries));
    sm.train_flow_outlier_rate =
        sm.task_count > 0 ? static_cast<double>(flow_outlier_tasks) /
                                static_cast<double>(sm.task_count)
                          : 0.0;
    model.trained_tasks_ += sm.task_count;
    model.stages_.emplace(stage_id, std::move(sm));
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
