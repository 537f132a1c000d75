#include "core/analyzer_pool.h"

#include <cassert>

#include "core/telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace saad::core {

namespace {

struct AnalyzerMetrics {
  obs::Counter& ingested;
  obs::Counter& model_swaps;
  obs::Gauge& model_epoch;

  AnalyzerMetrics()
      : ingested(obs::MetricsRegistry::global().counter(
            "saad_analyzer_ingested_total",
            "Synopses ingested by the analyzer.")),
        model_swaps(obs::MetricsRegistry::global().counter(
            "saad_analyzer_model_swaps_total",
            "Hot model reloads applied at a window boundary.")),
        model_epoch(obs::MetricsRegistry::global().gauge(
            "saad_analyzer_model_epoch",
            "Model epoch of the most recently swapped or restored analyzer "
            "(0 = the construction model, +1 per applied swap; a restore "
            "continues from the checkpoint's epoch).")) {}

  static AnalyzerMetrics& get() {
    static AnalyzerMetrics* metrics = new AnalyzerMetrics();
    return *metrics;
  }
};

}  // namespace

void detail::register_analyzer_pool_metrics() { AnalyzerMetrics::get(); }

AnalyzerPool::AnalyzerPool(const OutlierModel* model, DetectorConfig config)
    : detector_(model, config) {}

void AnalyzerPool::ingest(SynopsisView synopsis) {
  if constexpr (obs::kMetricsEnabled) AnalyzerMetrics::get().ingested.inc();
  detector_.ingest(synopsis);
}

std::vector<Anomaly> AnalyzerPool::advance_to(UsTime now) {
  auto out = detector_.advance_to(now);
  apply_pending_model();
  return out;
}

std::vector<Anomaly> AnalyzerPool::finish() {
  auto out = detector_.finish();
  apply_pending_model();
  return out;
}

bool AnalyzerPool::restore_state(std::span<const std::uint8_t> in,
                                 std::uint64_t model_epoch) {
  if (!detector_.restore_state(in)) return false;
  restored_next_window_ = detector_.next_window_to_close();
  model_epoch_ = model_epoch;
  if constexpr (obs::kMetricsEnabled)
    AnalyzerMetrics::get().model_epoch.set(
        static_cast<std::int64_t>(model_epoch_));
  return true;
}

void AnalyzerPool::swap_model(const OutlierModel* model) {
  assert(model != nullptr);
  pending_model_ = model;
}

void AnalyzerPool::apply_pending_model() {
  if (pending_model_ == nullptr) return;
  detector_.rebind_model(pending_model_);
  pending_model_ = nullptr;
  ++model_epoch_;
  if constexpr (obs::kMetricsEnabled) {
    auto& metrics = AnalyzerMetrics::get();
    metrics.model_swaps.inc();
    metrics.model_epoch.set(static_cast<std::int64_t>(model_epoch_));
  }
  obs::FlightRecorder::global().record(
      obs::EventKind::kModelReload,
      "analyzer: model swapped at window boundary (epoch %llu)",
      static_cast<unsigned long long>(model_epoch_));
}

}  // namespace saad::core
