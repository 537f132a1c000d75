// Binary persistence for OutlierModel (declared in model.h).
//
// Format (all integers varint, all rates IEEE-754 doubles):
//   magic "SAADMDL1"
//   config: flow_share_threshold, duration_quantile, kfold_k,
//           unstable_factor, min_signature_samples
//   trained_tasks, num_stages
//   per stage (written in ascending stage id, read in any order; of a
//   repeated stage the first wins):
//     stage_id, task_count, train_flow_outlier_rate, num_signatures
//     per signature (written in Signature order, read in any order; of a
//     repeated signature the first wins):
//       point count, delta-encoded points, task_count, share,
//       flags (flow_outlier | perf_applicable << 1), duration_threshold,
//       train_perf_outlier_rate
#include <cmath>
#include <cstring>

#include "core/model.h"
#include "core/varint.h"

namespace saad::core {

namespace {
constexpr char kMagic[8] = {'S', 'A', 'A', 'D', 'M', 'D', 'L', '1'};

// Shares, rates, and quantiles are probabilities; anything else in those
// fields is corruption, not a model.
bool valid_rate(double d) { return std::isfinite(d) && d >= 0.0 && d <= 1.0; }
}

void OutlierModel::save(std::vector<std::uint8_t>& out) const {
  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  put_double(config_.flow_share_threshold, out);
  put_double(config_.duration_quantile, out);
  put_varint(config_.kfold_k, out);
  put_double(config_.unstable_factor, out);
  put_varint(config_.min_signature_samples, out);

  put_varint(trained_tasks_, out);
  put_varint(stages_.size(), out);
  for (const auto& [stage_id, sm] : stages_) {
    put_varint(stage_id, out);
    put_varint(sm.task_count, out);
    put_double(sm.train_flow_outlier_rate, out);
    put_varint(sm.signatures.size(), out);
    for (const auto& [sig, ss] : sm.signatures) {
      put_signature(sig, out);
      put_varint(ss.task_count, out);
      put_double(ss.share, out);
      const std::uint64_t flags =
          (ss.flow_outlier ? 1u : 0u) | (ss.perf_applicable ? 2u : 0u);
      put_varint(flags, out);
      put_varint(zigzag(ss.duration_threshold), out);
      put_double(ss.train_perf_outlier_rate, out);
    }
  }
}

std::optional<OutlierModel> OutlierModel::load(
    std::span<const std::uint8_t> in) {
  if (in.size() < sizeof(kMagic) ||
      std::memcmp(in.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  in = in.subspan(sizeof(kMagic));

  OutlierModel model;
  std::uint64_t v = 0;
  if (!get_double(in, model.config_.flow_share_threshold) ||
      !valid_rate(model.config_.flow_share_threshold)) {
    return std::nullopt;
  }
  if (!get_double(in, model.config_.duration_quantile) ||
      !valid_rate(model.config_.duration_quantile)) {
    return std::nullopt;
  }
  if (!get_varint(in, v)) return std::nullopt;
  model.config_.kfold_k = static_cast<std::size_t>(v);
  if (!get_double(in, model.config_.unstable_factor) ||
      !std::isfinite(model.config_.unstable_factor) ||
      model.config_.unstable_factor < 0.0) {
    return std::nullopt;
  }
  if (!get_varint(in, v)) return std::nullopt;
  model.config_.min_signature_samples = static_cast<std::size_t>(v);

  if (!get_varint(in, model.trained_tasks_)) return std::nullopt;
  std::uint64_t num_stages = 0;
  if (!get_varint(in, num_stages) || num_stages > 0x10000) return std::nullopt;
  for (std::uint64_t s = 0; s < num_stages; ++s) {
    StageModel sm;
    if (!get_varint(in, v) || v > 0xFFFF) return std::nullopt;
    sm.stage = static_cast<StageId>(v);
    if (!get_varint(in, sm.task_count)) return std::nullopt;
    if (!get_double(in, sm.train_flow_outlier_rate) ||
        !valid_rate(sm.train_flow_outlier_rate)) {
      return std::nullopt;
    }
    std::uint64_t num_sigs = 0;
    if (!get_varint(in, num_sigs) || num_sigs > 0x100000) return std::nullopt;
    std::vector<SignatureTable::Entry> entries;
    for (std::uint64_t g = 0; g < num_sigs; ++g) {
      Signature sig;
      if (!get_signature(in, sig)) return std::nullopt;
      SignatureStats ss;
      if (!get_varint(in, ss.task_count)) return std::nullopt;
      if (!get_double(in, ss.share) || !valid_rate(ss.share))
        return std::nullopt;
      std::uint64_t flags = 0;
      if (!get_varint(in, flags) || flags > 3u) return std::nullopt;
      ss.flow_outlier = (flags & 1u) != 0;
      ss.perf_applicable = (flags & 2u) != 0;
      if (!get_varint(in, v)) return std::nullopt;
      ss.duration_threshold = unzigzag(v);
      // Thresholds are trained from task durations, which are never
      // negative; a negative value here is corruption.
      if (ss.duration_threshold < 0) return std::nullopt;
      if (!get_double(in, ss.train_perf_outlier_rate) ||
          !valid_rate(ss.train_perf_outlier_rate)) {
        return std::nullopt;
      }
      entries.emplace_back(std::move(sig), ss);
    }
    sm.signatures = SignatureTable(std::move(entries));
    model.stages_.emplace(sm.stage, std::move(sm));
  }
  // A valid model consumes its input exactly; trailing bytes mean the file
  // is not what it claims to be (concatenated junk, a torn rewrite, ...).
  if (!in.empty()) return std::nullopt;
  return model;
}

}  // namespace saad::core
