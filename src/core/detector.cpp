#include "core/detector.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>
#include <tuple>
#include <utility>

#include "core/telemetry.h"
#include "core/varint.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace saad::core {

namespace {

struct DetectorMetrics {
  obs::Counter& synopses;
  obs::Counter& late_reattributed;
  obs::Counter& unknown_stage;
  obs::Counter& windows_closed;
  obs::Counter& flow_anomalies;
  obs::Counter& perf_anomalies;
  obs::Counter& tests_run;
  obs::Counter& tests_rejected;
  obs::Histogram& window_close_us;

  DetectorMetrics()
      : synopses(obs::MetricsRegistry::global().counter(
            "saad_detector_synopses_total",
            "Synopses classified and bucketed into windows.")),
        late_reattributed(obs::MetricsRegistry::global().counter(
            "saad_detector_late_reattributed_total",
            "Synopses whose start window had already closed, counted in the "
            "oldest open window instead.")),
        unknown_stage(obs::MetricsRegistry::global().counter(
            "saad_detector_unknown_stage_total",
            "Synopses of a stage the model has never seen (each is a new "
            "flow).")),
        windows_closed(obs::MetricsRegistry::global().counter(
            "saad_detector_windows_closed_total",
            "Detection windows closed.")),
        flow_anomalies(obs::MetricsRegistry::global().counter(
            "saad_detector_anomalies_total", "Anomaly verdicts raised.",
            {{"kind", "flow"}})),
        perf_anomalies(obs::MetricsRegistry::global().counter(
            "saad_detector_anomalies_total", "Anomaly verdicts raised.",
            {{"kind", "performance"}})),
        tests_run(obs::MetricsRegistry::global().counter(
            "saad_detector_tests_total",
            "Proportion hypothesis tests executed at window close.")),
        tests_rejected(obs::MetricsRegistry::global().counter(
            "saad_detector_test_rejections_total",
            "Hypothesis tests that rejected the null (raised or contributed "
            "to an anomaly).")),
        window_close_us(obs::MetricsRegistry::global().histogram(
            "saad_detector_window_close_us",
            "Latency of closing one detection window (all tests for all "
            "(host, stage) keys), microseconds.",
            obs::latency_bounds_us())) {}

  static DetectorMetrics& get() {
    static DetectorMetrics* metrics = new DetectorMetrics();
    return *metrics;
  }
};

std::uint32_t mix_key(HostId host, StageId stage) {
  // MurmurHash3's 32-bit finalizer over the packed key.
  std::uint32_t h = (static_cast<std::uint32_t>(host) << 16) | stage;
  h ^= h >> 16;
  h *= 0x85EBCA6Bu;
  h ^= h >> 13;
  h *= 0xC2B2AE35u;
  h ^= h >> 16;
  return h;
}

}  // namespace

void detail::register_detector_metrics() { DetectorMetrics::get(); }

AnomalyDetector::AnomalyDetector(const OutlierModel* model,
                                 DetectorConfig config)
    : model_(model), config_(config) {
  assert(model_ != nullptr);
  assert(config_.window > 0);
}

std::uint32_t AnomalyDetector::key_index(HostId host, StageId stage) {
  if (!key_slots_.empty()) {
    const std::size_t mask = key_slots_.size() - 1;
    for (std::size_t i = mix_key(host, stage) & mask; key_slots_[i] != 0;
         i = (i + 1) & mask) {
      const Key& key = keys_[key_slots_[i] - 1];
      if (key.host == host && key.stage == stage) return key_slots_[i] - 1;
    }
  }
  // First sighting: number the key, keep the (host, stage) order, and index
  // it, rebuilding the index when it passes half load.
  const auto index = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back({host, stage, model_->stage_model(stage)});
  key_order_.insert(
      std::upper_bound(key_order_.begin(), key_order_.end(), index,
                       [&](std::uint32_t a, std::uint32_t b) {
                         return std::tie(keys_[a].host, keys_[a].stage) <
                                std::tie(keys_[b].host, keys_[b].stage);
                       }),
      index);
  const auto insert = [this](std::uint32_t k) {
    const std::size_t mask = key_slots_.size() - 1;
    std::size_t i = mix_key(keys_[k].host, keys_[k].stage) & mask;
    while (key_slots_[i] != 0) i = (i + 1) & mask;
    key_slots_[i] = k + 1;
  };
  if (2 * keys_.size() > key_slots_.size()) {
    key_slots_.assign(std::max<std::size_t>(16, 2 * key_slots_.size()), 0);
    for (std::uint32_t k = 0; k < keys_.size(); ++k) insert(k);
  } else {
    insert(index);
  }
  return index;
}

AnomalyDetector::Window& AnomalyDetector::open_window(std::size_t index) {
  auto it = std::lower_bound(
      open_windows_.begin(), open_windows_.end(), index,
      [](const OpenWindow& w, std::size_t i) { return w.index < i; });
  if (it != open_windows_.end() && it->index == index) return it->slots;
  Window slots;
  if (!spare_windows_.empty()) {
    slots = std::move(spare_windows_.back());
    spare_windows_.pop_back();
  }
  return open_windows_.insert(it, OpenWindow{index, std::move(slots)})->slots;
}

AnomalyDetector::StageWindowStats& AnomalyDetector::slot(std::size_t window,
                                                         std::uint32_t key) {
  // The cache points into open_windows_, which only this call grows.
  if (last_window_ == nullptr || last_window_index_ != window) {
    last_window_index_ = window;
    last_window_ = &open_window(window);
  }
  Window& slots = *last_window_;
  if (key >= slots.size()) slots.resize(keys_.size());
  StageWindowStats& stats = slots[key];
  if (!stats.open) {
    // First touch in this window: drop what the slot tallied for an earlier
    // window, keeping the vectors' capacity.
    stats.open = true;
    stats.n = 0;
    stats.flow_outliers = 0;
    stats.example_id = kNoSignature;
    stats.known.clear();
    if (stats.unseen != nullptr) {
      stats.unseen->tallies.clear();
      stats.unseen->new_signatures.clear();
      stats.unseen->example = Signature();
    }
  }
  return stats;
}

const Signature& AnomalyDetector::example_of(const StageWindowStats& stats,
                                             const StageModel* model) {
  static const Signature kNone;
  if (stats.example_id != kNoSignature)
    return model->signatures[stats.example_id].first;
  return stats.unseen != nullptr ? stats.unseen->example : kNone;
}

AnomalyDetector::UnseenStats& AnomalyDetector::unseen_of(
    StageWindowStats& stats) {
  if (stats.unseen == nullptr) stats.unseen = std::make_unique<UnseenStats>();
  return *stats.unseen;
}

AnomalyDetector::SigWindowStats& AnomalyDetector::tally(
    StageWindowStats& stats, SignatureId id, const Signature& value) {
  if (id != kNoSignature) {
    auto it = std::lower_bound(
        stats.known.begin(), stats.known.end(), id,
        [](const KnownTally& t, SignatureId v) { return t.id < v; });
    if (it == stats.known.end() || it->id != id)
      it = stats.known.insert(it, KnownTally{id, {}});
    return it->stats;
  }
  auto& unseen = unseen_of(stats).tallies;
  for (auto& [signature, t] : unseen)
    if (signature == value) return t;
  return unseen.emplace_back(value, SigWindowStats{}).second;
}

void AnomalyDetector::ingest(SynopsisView synopsis) {
  auto window =
      static_cast<std::size_t>(std::max<UsTime>(synopsis.start, 0) / config_.window);
  // Late synopses for windows already closed are attributed to the oldest
  // open window rather than dropped: anomalies should not escape detection
  // because a long task finished after its start window closed.
  const bool late = window < next_window_to_close_;
  if (late) window = next_window_to_close_;
  const std::uint32_t key = key_index(synopsis.host, synopsis.stage);
  const StageModel* sm = keys_[key].model;
  const std::size_t windows_before = open_windows_.size();
  StageWindowStats& stats = slot(window, key);
  if (open_windows_.size() != windows_before) {
    obs::FlightRecorder::global().record(obs::EventKind::kWindowOpen,
                                         "window %zu opened", window);
  }
  if constexpr (obs::kMetricsEnabled) {
    auto& metrics = DetectorMetrics::get();
    metrics.synopses.inc();
    if (late) metrics.late_reattributed.inc();
    if (sm == nullptr) metrics.unknown_stage.inc();
  }

  const SignatureId id =
      sm != nullptr ? sm->signatures.find(synopsis.log_points) : kNoSignature;
  const Classification c = OutlierModel::classify(sm, id, synopsis.duration);
  // Only a signature the model lacks is materialized, to tally by value.
  const Signature signature =
      id == kNoSignature ? Signature::from(synopsis.log_points) : Signature();
  stats.n++;
  if (c.flow_outlier) {
    stats.flow_outliers++;
    if (example_of(stats, sm).empty()) {
      stats.example_id = id;
      if (id == kNoSignature) unseen_of(stats).example = signature;
    }
  }
  if (c.new_signature) {
    auto& fresh = unseen_of(stats).new_signatures;
    if (std::find(fresh.begin(), fresh.end(), signature) == fresh.end())
      fresh.push_back(signature);
  }
  SigWindowStats& t = tally(stats, id, signature);
  t.n++;
  t.perf_applicable = c.perf_applicable;
  if (c.perf_outlier) t.perf_outliers++;
  ingested_++;
}

std::vector<Anomaly> AnomalyDetector::advance_to(UsTime now) {
  std::vector<Anomaly> out;
  last_window_ = nullptr;
  // Every window below now / window has ended, opened or not.
  next_window_to_close_ = std::max(
      next_window_to_close_,
      static_cast<std::size_t>(std::max<UsTime>(now, 0) / config_.window));
  auto it = open_windows_.begin();
  for (; it != open_windows_.end() && it->index < next_window_to_close_; ++it) {
    close_window(it->index, it->slots, out);
    for (StageWindowStats& stats : it->slots) stats.open = false;
    spare_windows_.push_back(std::move(it->slots));
  }
  open_windows_.erase(open_windows_.begin(), it);
  return out;
}

std::vector<Anomaly> AnomalyDetector::finish() {
  std::vector<Anomaly> out;
  last_window_ = nullptr;
  for (const auto& [index, window] : open_windows_) {
    close_window(index, window, out);
    next_window_to_close_ = index + 1;
  }
  open_windows_.clear();
  spare_windows_.clear();
  return out;
}

std::vector<std::pair<std::size_t, std::uint64_t>>
AnomalyDetector::open_window_synopses() const {
  std::vector<std::pair<std::size_t, std::uint64_t>> out;
  for (const auto& [index, window] : open_windows_) {
    std::uint64_t n = 0;
    for (const StageWindowStats& stats : window)
      if (stats.open) n += stats.n;
    out.emplace_back(index, n);
  }
  return out;
}

void AnomalyDetector::rebind_model(const OutlierModel* model) {
  assert(model != nullptr);
  // Ids belong to a model: re-key every open tally by signature value.
  for (auto& [index, window] : open_windows_) {
    for (std::uint32_t k = 0; k < window.size(); ++k) {
      StageWindowStats& stats = window[k];
      if (!stats.open) continue;
      const StageModel* from = keys_[k].model;
      const StageModel* to = model->stage_model(keys_[k].stage);
      const auto id_in = [&](const Signature& signature) {
        return to != nullptr ? to->signatures.find(signature) : kNoSignature;
      };
      StageWindowStats rekeyed;
      for (const KnownTally& t : stats.known) {
        const Signature& signature = from->signatures[t.id].first;
        tally(rekeyed, id_in(signature), signature) = t.stats;
      }
      if (stats.unseen != nullptr)
        for (const auto& [signature, t] : stats.unseen->tallies)
          tally(rekeyed, id_in(signature), signature) = t;
      stats.known = std::move(rekeyed.known);
      if (rekeyed.unseen != nullptr)
        unseen_of(stats).tallies = std::move(rekeyed.unseen->tallies);
      else if (stats.unseen != nullptr)
        stats.unseen->tallies.clear();
      Signature example = example_of(stats, from);
      stats.example_id = id_in(example);
      if (stats.example_id != kNoSignature) example = Signature();
      if (stats.unseen != nullptr || !example.empty())
        unseen_of(stats).example = std::move(example);
    }
  }
  for (Key& key : keys_) key.model = model->stage_model(key.stage);
  model_ = model;
}

namespace {

// Detector-state codec (version 1). All integers varint; signatures use
// put_signature() (feature.h). Windows, keys and signatures are written in
// ascending order, so equal states encode equal bytes.
constexpr std::uint64_t kDetectorStateVersion = 1;

}  // namespace

void AnomalyDetector::save_state(std::vector<std::uint8_t>& out) const {
  put_varint(kDetectorStateVersion, out);
  put_varint(next_window_to_close_, out);
  put_varint(ingested_, out);
  put_varint(open_windows_.size(), out);
  std::vector<const std::pair<Signature, SigWindowStats>*> unseen;
  for (const auto& [index, window] : open_windows_) {
    put_varint(index, out);
    const auto is_open = [&](std::uint32_t k) {
      return k < window.size() && window[k].open;
    };
    put_varint(std::count_if(key_order_.begin(), key_order_.end(), is_open),
               out);
    for (const std::uint32_t k : key_order_) {
      if (!is_open(k)) continue;
      const StageWindowStats& stats = window[k];
      const StageModel* sm = keys_[k].model;
      put_varint(keys_[k].host, out);
      put_varint(keys_[k].stage, out);
      put_varint(stats.n, out);
      put_varint(stats.flow_outliers, out);
      put_signature(example_of(stats, sm), out);
      static const UnseenStats kNone;
      const UnseenStats& rare = stats.unseen ? *stats.unseen : kNone;
      put_varint(rare.new_signatures.size(), out);
      for (const Signature& sig : rare.new_signatures) put_signature(sig, out);
      // Known tallies are in Signature order already; merge the never-seen
      // ones in.
      put_varint(stats.known.size() + rare.tallies.size(), out);
      unseen.clear();
      for (const auto& u : rare.tallies) unseen.push_back(&u);
      std::sort(unseen.begin(), unseen.end(),
                [](const auto* a, const auto* b) { return a->first < b->first; });
      const auto put_tally = [&](const Signature& sig, const SigWindowStats& t) {
        put_signature(sig, out);
        put_varint(t.n, out);
        put_varint(t.perf_outliers, out);
        put_varint(t.perf_applicable ? 1 : 0, out);
      };
      auto u = unseen.begin();
      for (const KnownTally& t : stats.known) {
        const Signature& sig = sm->signatures[t.id].first;
        for (; u != unseen.end() && (*u)->first < sig; ++u)
          put_tally((*u)->first, (*u)->second);
        put_tally(sig, t.stats);
      }
      for (; u != unseen.end(); ++u) put_tally((*u)->first, (*u)->second);
    }
  }
}

bool AnomalyDetector::restore_state(std::span<const std::uint8_t> in) {
  // Decode into scratch structures keyed by value first: a malformed tail
  // must not leave the detector half-mutated.
  struct DecodedKey {
    std::uint64_t n = 0;
    std::uint64_t flow_outliers = 0;
    Signature example;
    std::vector<Signature> new_signatures;
    std::map<Signature, SigWindowStats> per_signature;
  };
  using DecodedWindow = std::map<std::pair<HostId, StageId>, DecodedKey>;
  std::uint64_t version = 0, next_window = 0, ingested = 0, num_windows = 0;
  if (!get_varint(in, version) || version != kDetectorStateVersion)
    return false;
  if (!get_varint(in, next_window)) return false;
  if (!get_varint(in, ingested)) return false;
  if (!get_varint(in, num_windows) || num_windows > 0x100000) return false;
  std::map<std::size_t, DecodedWindow> windows;
  for (std::uint64_t w = 0; w < num_windows; ++w) {
    std::uint64_t index = 0, num_keys = 0;
    if (!get_varint(in, index)) return false;
    auto [win_it, fresh] = windows.try_emplace(static_cast<std::size_t>(index));
    if (!fresh) return false;  // duplicate window index
    if (!get_varint(in, num_keys) || num_keys > 0x100000) return false;
    for (std::uint64_t k = 0; k < num_keys; ++k) {
      std::uint64_t host = 0, stage = 0, count = 0;
      if (!get_varint(in, host) || host > 0xFFFF) return false;
      if (!get_varint(in, stage) || stage > 0xFFFF) return false;
      auto [key_it, new_key] = win_it->second.try_emplace(
          {static_cast<HostId>(host), static_cast<StageId>(stage)});
      if (!new_key) return false;  // duplicate key
      DecodedKey& decoded = key_it->second;
      if (!get_varint(in, decoded.n)) return false;
      if (!get_varint(in, decoded.flow_outliers)) return false;
      if (!get_signature(in, decoded.example)) return false;
      if (!get_varint(in, count) || count > 0x100000) return false;
      decoded.new_signatures.reserve(count);
      for (std::uint64_t s = 0; s < count; ++s) {
        Signature sig;
        if (!get_signature(in, sig)) return false;
        decoded.new_signatures.push_back(std::move(sig));
      }
      if (!get_varint(in, count) || count > 0x100000) return false;
      for (std::uint64_t s = 0; s < count; ++s) {
        Signature sig;
        if (!get_signature(in, sig)) return false;
        SigWindowStats sig_stats;
        std::uint64_t flags = 0;
        if (!get_varint(in, sig_stats.n)) return false;
        if (!get_varint(in, sig_stats.perf_outliers)) return false;
        if (!get_varint(in, flags) || flags > 1) return false;
        sig_stats.perf_applicable = flags != 0;
        if (!decoded.per_signature.emplace(std::move(sig), sig_stats).second)
          return false;  // duplicate signature
      }
    }
  }
  if (!in.empty()) return false;

  open_windows_.clear();
  last_window_ = nullptr;
  next_window_to_close_ = static_cast<std::size_t>(next_window);
  ingested_ = ingested;
  for (auto& [index, window] : windows) {
    for (auto& [key, src] : window) {
      const std::uint32_t k = key_index(key.first, key.second);
      const StageModel* sm = keys_[k].model;
      const auto id_of = [&](const Signature& sig) {
        return sm != nullptr ? sm->signatures.find(sig) : kNoSignature;
      };
      StageWindowStats& dst = slot(index, k);
      dst.n = src.n;
      dst.flow_outliers = src.flow_outliers;
      dst.example_id = id_of(src.example);
      if (dst.example_id == kNoSignature && !src.example.empty())
        unseen_of(dst).example = std::move(src.example);
      for (auto& sig : src.new_signatures) {
        auto& fresh = unseen_of(dst).new_signatures;
        if (std::find(fresh.begin(), fresh.end(), sig) == fresh.end())
          fresh.push_back(std::move(sig));
      }
      for (const auto& [sig, stats] : src.per_signature)
        tally(dst, id_of(sig), sig) = stats;
    }
  }
  return true;
}

void AnomalyDetector::close_window(std::size_t index, const Window& window,
                                   std::vector<Anomaly>& out) {
  const std::size_t first = out.size();
  std::chrono::steady_clock::time_point close_begin;
  if constexpr (obs::kMetricsEnabled)
    close_begin = std::chrono::steady_clock::now();

  const auto is_open = [&](std::uint32_t k) {
    return k < window.size() && window[k].open;
  };
  double alpha = config_.alpha;
  if (config_.bonferroni) {
    // Count the hypothesis tests this window will run: one flow test per
    // (host, stage) with outliers, one perf test per applicable signature
    // with outliers.
    std::size_t tests = 0;
    const auto counts = [](const SigWindowStats& t) {
      return t.perf_applicable && t.perf_outliers > 0;
    };
    for (const StageWindowStats& stats : window) {
      if (!stats.open) continue;
      if (stats.flow_outliers > 0) tests++;
      for (const KnownTally& t : stats.known) tests += counts(t.stats);
      if (stats.unseen != nullptr)
        for (const auto& u : stats.unseen->tallies) tests += counts(u.second);
    }
    if (tests > 1) alpha /= static_cast<double>(tests);
  }

  std::size_t keys_closed = 0;
  for (const std::uint32_t k : key_order_) {
    if (!is_open(k)) continue;
    ++keys_closed;
    const StageWindowStats& stats = window[k];
    const HostId host = keys_[k].host;
    const StageId stage = keys_[k].stage;
    const StageModel* sm = keys_[k].model;
    const double train_flow_rate = sm ? sm->train_flow_outlier_rate : 0.0;

    // ---- Flow anomaly ---------------------------------------------------
    Anomaly flow;
    flow.window = index;
    flow.window_start = static_cast<UsTime>(index) * config_.window;
    flow.host = host;
    flow.stage = stage;
    flow.kind = AnomalyKind::kFlow;
    flow.n = stats.n;
    flow.outliers = stats.flow_outliers;
    flow.proportion = stats.n > 0
                          ? static_cast<double>(stats.flow_outliers) /
                                static_cast<double>(stats.n)
                          : 0.0;
    flow.train_proportion = train_flow_rate;

    bool flow_anomalous = false;
    if (config_.new_signature_is_anomaly && stats.unseen != nullptr &&
        !stats.unseen->new_signatures.empty()) {
      flow_anomalous = true;
      flow.due_to_new_signature = true;
      flow.example_signature = stats.unseen->new_signatures.front();
      flow.p_value = 0.0;  // condition (ii): categorical, not a test
    } else if (stats.flow_outliers > 0) {
      const auto result = stats::proportion_above(
          stats.flow_outliers, stats.n, train_flow_rate, alpha,
          config_.test_kind, config_.min_n);
      flow.p_value = result.p_value;
      flow_anomalous = result.reject;
      if (flow_anomalous) flow.example_signature = example_of(stats, sm);
      if constexpr (obs::kMetricsEnabled) {
        auto& metrics = DetectorMetrics::get();
        metrics.tests_run.inc();
        if (result.reject) metrics.tests_rejected.inc();
      }
    }
    if (flow_anomalous) out.push_back(std::move(flow));

    // ---- Performance anomaly ---------------------------------------------
    // Tested per known signature, in Signature order (a signature the model
    // lacks has no threshold); the stage is anomalous if any rejects.
    if (sm == nullptr) continue;
    Anomaly perf;
    perf.p_value = 1.0;
    const Signature* example = nullptr;
    for (const KnownTally& t : stats.known) {
      if (!t.stats.perf_applicable || t.stats.perf_outliers == 0) continue;
      const auto& [signature, trained] = sm->signatures[t.id];
      const auto result = stats::proportion_above(
          t.stats.perf_outliers, t.stats.n, trained.train_perf_outlier_rate,
          alpha, config_.test_kind, config_.min_n);
      if constexpr (obs::kMetricsEnabled) {
        auto& metrics = DetectorMetrics::get();
        metrics.tests_run.inc();
        if (result.reject) metrics.tests_rejected.inc();
      }
      if (result.reject && result.p_value <= perf.p_value) {
        perf.p_value = result.p_value;
        perf.n = t.stats.n;
        perf.outliers = t.stats.perf_outliers;
        perf.proportion = static_cast<double>(t.stats.perf_outliers) /
                          static_cast<double>(t.stats.n);
        perf.train_proportion = trained.train_perf_outlier_rate;
        example = &signature;
      }
    }
    if (example != nullptr) {
      perf.window = index;
      perf.window_start = static_cast<UsTime>(index) * config_.window;
      perf.host = host;
      perf.stage = stage;
      perf.kind = AnomalyKind::kPerformance;
      perf.example_signature = *example;
      out.push_back(std::move(perf));
    }
  }

  if constexpr (obs::kMetricsEnabled) {
    auto& metrics = DetectorMetrics::get();
    metrics.windows_closed.inc();
    metrics.window_close_us.observe(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - close_begin)
            .count());
    for (std::size_t i = first; i < out.size(); ++i) {
      (out[i].kind == AnomalyKind::kFlow ? metrics.flow_anomalies
                                         : metrics.perf_anomalies)
          .inc();
    }
  }
  if (out.size() > first) {
    obs::FlightRecorder::global().record(
        obs::EventKind::kWindowClose, "window %zu closed: %zu anomalies over %zu (host, stage) keys",
        index, out.size() - first, keys_closed);
  }
}

}  // namespace saad::core
