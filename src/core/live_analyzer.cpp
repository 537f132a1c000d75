#include "core/live_analyzer.h"

#include <algorithm>
#include <chrono>

#include "core/telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace saad::core {

namespace {

struct AnalyzerMetrics {
  obs::Counter& ingested;
  obs::Counter& model_swaps;
  obs::Gauge& model_epoch;

  AnalyzerMetrics()
      : ingested(obs::MetricsRegistry::global().counter(
            "saad_analyzer_ingested_total",
            "Synopses ingested by the live analyzer (detect, serve)")),
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

/// The watermark at which window `w` closes: its end plus two windows.
UsTime close_watermark(std::size_t w, UsTime window) {
  return static_cast<UsTime>(w + 3) * window;
}

}  // namespace

void detail::register_analyzer_metrics() { AnalyzerMetrics::get(); }

LiveAnalyzer::LiveAnalyzer(OutlierModel model,
                           std::vector<std::uint8_t> model_bytes,
                           Options options)
    : options_(std::move(options)),
      model_(std::make_unique<OutlierModel>(std::move(model))),
      model_bytes_(std::move(model_bytes)),
      detector_(std::make_unique<AnomalyDetector>(model_.get(),
                                                  options_.config)),
      close_at_(close_watermark(0, options_.config.window)) {
  // Numbering continues above every file ever written there, valid or not.
  if (options_.checkpoints != nullptr)
    next_sequence_ = options_.checkpoints->max_sequence() + 1;
}

bool LiveAnalyzer::load_registry(std::vector<std::uint8_t> bytes) {
  if (!registry_.load(bytes)) return false;
  registry_bytes_ = std::move(bytes);
  return true;
}

const char* LiveAnalyzer::resume(const Checkpoint& c) {
  if (c.window != options_.config.window)
    return "checkpoint window differs from the analyzer's";
  // The checkpoint's model and registry are what its open windows were
  // classified under, so they win over the ones given at construction.
  if (!c.model.empty()) {
    auto m = OutlierModel::load(c.model);
    if (!m) return "checkpoint model is malformed";
    auto model = std::make_unique<OutlierModel>(std::move(*m));
    detector_ = std::make_unique<AnomalyDetector>(model.get(), options_.config);
    model_ = std::move(model);
    model_bytes_ = c.model;
  }
  if (!c.registry.empty() && !load_registry(c.registry))
    return "checkpoint registry is malformed";
  if (!detector_->restore_state(c.analyzer))
    return "checkpoint analyzer state is malformed";
  verdicts_ = c.anomalies;
  // Windows below the restored cursor closed before the checkpoint; the
  // open ones' tallies count the synopses their [stats] lines report.
  next_window_ = detector_->next_window_to_close();
  close_at_ = close_watermark(next_window_, options_.config.window);
  if (options_.stats != nullptr)
    for (const auto& [w, synopses] : detector_->open_window_synopses())
      window_counts_[w].synopses = synopses;
  if constexpr (obs::kMetricsEnabled)
    AnalyzerMetrics::get().model_epoch.set(
        static_cast<std::int64_t>(c.model_epoch));
  status_.ingested.store(c.ingested, std::memory_order_relaxed);
  status_.verdicts.store(verdicts_.size(), std::memory_order_relaxed);
  status_.model_epoch.store(c.model_epoch, std::memory_order_relaxed);
  status_.checkpoint_sequence.store(c.sequence, std::memory_order_relaxed);
  return nullptr;
}

void LiveAnalyzer::ingest(const SynopsisBatch& batch) {
  consumed_ += batch.size();
  if constexpr (obs::kMetricsEnabled)
    AnalyzerMetrics::get().ingested.inc(batch.size());
  if (options_.tracer != nullptr) options_.tracer->on_dequeued(consumed_);
  bool checkpoint_due = false;
  for (const SynopsisView s : batch) {
    detector_->ingest(s);
    watermark_ = std::max(watermark_, s.start + s.duration);
    if (options_.stats != nullptr) {
      const auto w = static_cast<std::size_t>(std::max<UsTime>(s.start, 0) /
                                              options_.config.window);
      ++window_counts_[std::max(w, next_window_)].synopses;
    }
    if (watermark_ >= close_at_) checkpoint_due |= close_ready_windows();
  }
  if (options_.tracer != nullptr) options_.tracer->on_assigned(consumed_);
  status_.ingested.store(ingested() + batch.size(), std::memory_order_relaxed);
  if (checkpoint_due) checkpoint("window close");
}

void LiveAnalyzer::ingest(std::span<const Synopsis> batch) {
  SynopsisBatch values;
  for (const Synopsis& s : batch) values.append(s);
  ingest(values);
}

bool LiveAnalyzer::close_ready_windows() {
  const UsTime window = options_.config.window;
  const UsTime safe = watermark_ > 2 * window ? watermark_ - 2 * window : 0;
  if (static_cast<UsTime>(next_window_ + 1) * window > safe) return false;
  absorb(detector_->advance_to(safe));
  for (; static_cast<UsTime>(next_window_ + 1) * window <= safe; ++next_window_)
    if (options_.stats != nullptr) print_window(next_window_);
  close_at_ = close_watermark(next_window_, window);
  status_.watermark_us.store(safe, std::memory_order_relaxed);
  const std::uint64_t closes =
      status_.close_barriers.fetch_add(1, std::memory_order_relaxed) + 1;
  return options_.checkpoints != nullptr &&
         closes % options_.checkpoint_every == 0;
}

void LiveAnalyzer::finish() {
  absorb(detector_->finish());
  if (options_.stats == nullptr) return;
  std::size_t last = next_window_;
  if (!window_counts_.empty())
    last = std::max(last, window_counts_.rbegin()->first);
  for (; next_window_ <= last; ++next_window_) print_window(next_window_);
}

void LiveAnalyzer::absorb(std::vector<Anomaly> closed) {
  if (staged_model_ != nullptr) {  // a window boundary: the swap applies
    detector_->rebind_model(staged_model_.get());  // reads the old model
    model_ = std::move(staged_model_);
    model_bytes_ = std::move(staged_model_bytes_);
    const std::uint64_t epoch = status_.model_epoch.load() + 1;
    status_.model_epoch.store(epoch, std::memory_order_relaxed);
    if constexpr (obs::kMetricsEnabled) {
      auto& metrics = AnalyzerMetrics::get();
      metrics.model_swaps.inc();
      metrics.model_epoch.set(static_cast<std::int64_t>(epoch));
    }
    obs::FlightRecorder::global().record(
        obs::EventKind::kModelReload,
        "analyzer: model swapped at window boundary (epoch %llu)",
        static_cast<unsigned long long>(epoch));
  }
  if (options_.tracer != nullptr) options_.tracer->on_window_close(consumed_);
  for (const Anomaly& a : closed) {
    if (options_.stats == nullptr) break;
    auto& counts = window_counts_[a.window];
    ++(a.kind == AnomalyKind::kFlow ? counts.flow : counts.perf);
  }
  verdicts_.insert(verdicts_.end(), std::make_move_iterator(closed.begin()),
                   std::make_move_iterator(closed.end()));
  if (options_.tracer != nullptr) options_.tracer->on_verdict_emit(consumed_);
  status_.verdicts.store(verdicts_.size(), std::memory_order_relaxed);
}

void LiveAnalyzer::print_window(std::size_t w) {
  const WindowCounts counts = window_counts_[w];
  window_counts_.erase(w);
  const UsTime window = options_.config.window;
  std::fprintf(options_.stats,
               "[stats] window %3zu [%5.1f, %5.1f min): %6zu synopses, "
               "%zu anomalies (%zu flow, %zu performance)\n",
               w, to_min(static_cast<UsTime>(w) * window),
               to_min(static_cast<UsTime>(w + 1) * window), counts.synopses,
               counts.flow + counts.perf, counts.flow, counts.perf);
  std::fflush(options_.stats);
}

const OutlierModel* LiveAnalyzer::stage_model(
    std::vector<std::uint8_t> model_bytes) {
  auto m = OutlierModel::load(model_bytes);
  if (!m) return nullptr;
  staged_model_ = std::make_unique<OutlierModel>(std::move(*m));
  staged_model_bytes_ = std::move(model_bytes);
  return staged_model_.get();
}

Checkpoint LiveAnalyzer::capture() const {
  Checkpoint c;
  capture_into(c);
  return c;
}

void LiveAnalyzer::capture_into(Checkpoint& c) const {
  c.model_epoch = status_.model_epoch.load();
  c.window = options_.config.window;
  c.threads = 1;  // format field; the analyzer is serial
  c.ingested = ingested();
  c.model.assign(model_bytes_.begin(), model_bytes_.end());
  c.registry.assign(registry_bytes_.begin(), registry_bytes_.end());
  c.analyzer.clear();
  detector_->save_state(c.analyzer);
  c.anomalies.assign(verdicts_.begin(), verdicts_.end());
}

bool LiveAnalyzer::checkpoint(const char* why) {
  if (options_.checkpoints == nullptr) return false;
  Checkpoint& c = checkpoint_;
  capture_into(c);
  c.sequence = next_sequence_;
  c.acked = consumed_;
  c.published = options_.published ? options_.published() : consumed_;
  if (!options_.checkpoints->write(c)) {
    std::fprintf(stderr, "serve: checkpoint %llu failed to write to %s\n",
                 static_cast<unsigned long long>(c.sequence),
                 options_.checkpoints->dir().c_str());
    return false;
  }
  ++next_sequence_;
  // Published only after the validated write landed, so the status never
  // names a checkpoint that a restart would reject.
  status_.checkpoint_sequence.store(c.sequence, std::memory_order_relaxed);
  status_.checkpoint_wall_us.store(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  std::fprintf(stderr,
               "serve: checkpoint %llu (%s: %llu synopses, %zu verdicts)\n",
               static_cast<unsigned long long>(c.sequence), why,
               static_cast<unsigned long long>(ingested()), verdicts_.size());
  return true;
}

}  // namespace saad::core
