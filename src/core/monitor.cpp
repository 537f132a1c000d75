#include "core/monitor.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "core/log_registry.h"
#include "core/telemetry.h"
#include "core/trace_io.h"
#include "core/varint.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace saad::core {

namespace {

struct MonitorMetrics {
  obs::Counter& polls;
  obs::Counter& discarded;

  MonitorMetrics()
      : polls(obs::MetricsRegistry::global().counter(
            "saad_monitor_polls_total", "Monitor::poll() calls.")),
        discarded(obs::MetricsRegistry::global().counter(
            "saad_monitor_discarded_total",
            "Synopses drained while idle (between training, recording, and "
            "arming) and discarded by policy.")) {}

  static MonitorMetrics& get() {
    static MonitorMetrics* metrics = new MonitorMetrics();
    return *metrics;
  }
};

}  // namespace

void detail::register_monitor_metrics() { MonitorMetrics::get(); }

Monitor::Monitor(const LogRegistry* registry, const Clock* clock)
    : registry_(registry), clock_(clock) {
  assert(registry_ != nullptr && clock_ != nullptr);
}

TaskExecutionTracker& Monitor::tracker(HostId host) {
  if (host >= trackers_.size()) trackers_.resize(host + 1);
  if (trackers_[host] == nullptr) {
    trackers_[host] = std::make_unique<TaskExecutionTracker>(
        host, clock_, [this](const Synopsis& s) { channel_.push(s); });
  }
  return *trackers_[host];
}

void Monitor::start_training() {
  drop_queued();  // anything queued before training formally began
  training_trace_.clear();
  mode_ = Mode::kTraining;
  obs::FlightRecorder::global().record(obs::EventKind::kModeChange,
                                       "monitor: training started");
}

void Monitor::start_recording(TraceWriter* writer) {
  assert(writer != nullptr);
  drop_queued();  // anything queued before recording formally began
  trace_writer_ = writer;
  mode_ = Mode::kRecording;
  obs::FlightRecorder::global().record(obs::EventKind::kModeChange,
                                       "monitor: recording to %s",
                                       writer->path().c_str());
}

bool Monitor::stop_recording() {
  if (mode_ != Mode::kRecording)
    throw std::logic_error("Monitor::stop_recording without start_recording");
  poll(clock_->now());
  TraceWriter* writer = trace_writer_;
  trace_writer_ = nullptr;
  mode_ = Mode::kIdle;
  obs::FlightRecorder::global().record(
      obs::EventKind::kModeChange,
      "monitor: recording stopped (%llu synopses, %llu blocks)",
      static_cast<unsigned long long>(writer->synopses_written()),
      static_cast<unsigned long long>(writer->blocks_written()));
  return writer->flush();
}

void Monitor::train(const TrainingConfig& config) {
  if (mode_ != Mode::kTraining)
    throw std::logic_error("Monitor::train without start_training");
  channel_.drain(training_trace_);
  model_ = std::make_unique<OutlierModel>(
      OutlierModel::train(training_trace_, config));
  mode_ = Mode::kIdle;
  obs::FlightRecorder::global().record(
      obs::EventKind::kModelReload,
      "monitor: trained model on %zu synopses (%zu stages)",
      training_trace_.size(), model_->num_stages());
}

void Monitor::set_model(OutlierModel model) {
  model_ = std::make_unique<OutlierModel>(std::move(model));
  obs::FlightRecorder::global().record(
      obs::EventKind::kModelReload,
      "monitor: external model loaded (%zu stages)", model_->num_stages());
}

void Monitor::arm(const DetectorConfig& config) {
  if (model_ == nullptr)
    throw std::logic_error("Monitor::arm requires a trained model");
  drop_queued();  // synopses produced between training and arming
  analyzer_ = std::make_unique<AnalyzerPool>(model_.get(), config);
  mode_ = Mode::kDetecting;
  obs::FlightRecorder::global().record(obs::EventKind::kModeChange,
                                       "monitor: armed");
}

std::vector<Anomaly> Monitor::poll(UsTime now) {
  if constexpr (obs::kMetricsEnabled) MonitorMetrics::get().polls.inc();
  if (mode_ == Mode::kTraining) {  // training keeps values
    channel_.drain(training_trace_);
    return {};
  }
  batch_.clear();
  channel_.drain(batch_);
  if (mode_ == Mode::kRecording) {
    for (const SynopsisView s : batch_) trace_writer_->append(s);
    return {};
  }
  if (mode_ != Mode::kDetecting) {  // idle: batch is discarded
    if constexpr (obs::kMetricsEnabled) {
      if (!batch_.empty())
        MonitorMetrics::get().discarded.inc(batch_.size());
    }
    return {};
  }
  for (const SynopsisView s : batch_) analyzer_->ingest(s);
  return analyzer_->advance_to(now);
}

void Monitor::drop_queued() {
  batch_.clear();
  channel_.drain(batch_);
  batch_.clear();
}

std::vector<Anomaly> Monitor::finish() {
  if (analyzer_ == nullptr) return {};
  auto out = poll(clock_->now());
  auto tail = analyzer_->finish();
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

namespace {
constexpr std::uint64_t kMonitorStateVersion = 1;
}

bool Monitor::save_state(std::vector<std::uint8_t>& out) const {
  if (analyzer_ == nullptr || model_ == nullptr) return false;
  put_varint(kMonitorStateVersion, out);
  std::vector<std::uint8_t> model_bytes;
  model_->save(model_bytes);
  put_varint(model_bytes.size(), out);
  out.insert(out.end(), model_bytes.begin(), model_bytes.end());
  const DetectorConfig& config = analyzer_->config();
  put_varint(zigzag(config.window), out);
  put_double(config.alpha, out);
  put_varint(static_cast<std::uint64_t>(config.test_kind), out);
  put_varint(config.min_n, out);
  put_varint(config.new_signature_is_anomaly ? 1 : 0, out);
  put_varint(config.bonferroni ? 1 : 0, out);
  put_varint(1, out);  // thread count: a format field, ignored on restore
  std::vector<std::uint8_t> analyzer_bytes;
  analyzer_->save_state(analyzer_bytes);
  put_varint(analyzer_bytes.size(), out);
  out.insert(out.end(), analyzer_bytes.begin(), analyzer_bytes.end());
  return true;
}

bool Monitor::restore_state(std::span<const std::uint8_t> in) {
  std::uint64_t v = 0;
  if (!get_varint(in, v) || v != kMonitorStateVersion) return false;
  if (!get_varint(in, v) || v > in.size()) return false;
  auto model = OutlierModel::load(in.first(static_cast<std::size_t>(v)));
  if (!model) return false;
  in = in.subspan(static_cast<std::size_t>(v));
  DetectorConfig config;
  if (!get_varint(in, v)) return false;
  config.window = unzigzag(v);
  if (config.window <= 0) return false;
  if (!get_double(in, config.alpha) || !std::isfinite(config.alpha) ||
      config.alpha <= 0.0 || config.alpha >= 1.0) {
    return false;
  }
  if (!get_varint(in, v) || v > 2) return false;
  config.test_kind = static_cast<stats::ProportionTestKind>(v);
  if (!get_varint(in, config.min_n)) return false;
  if (!get_varint(in, v) || v > 1) return false;
  config.new_signature_is_anomaly = v != 0;
  if (!get_varint(in, v) || v > 1) return false;
  config.bonferroni = v != 0;
  if (!get_varint(in, v)) return false;  // thread count, ignored
  if (!get_varint(in, v) || v != in.size()) return false;

  // All parsed; build the new plane before touching the monitor, so a
  // malformed analyzer payload leaves the current state intact.
  auto restored = std::make_unique<OutlierModel>(std::move(*model));
  auto analyzer = std::make_unique<AnalyzerPool>(restored.get(), config);
  if (!analyzer->restore_state(in)) return false;

  drop_queued();  // arm() discipline
  model_ = std::move(restored);
  analyzer_ = std::move(analyzer);
  mode_ = Mode::kDetecting;
  obs::FlightRecorder::global().record(
      obs::EventKind::kModeChange, "monitor: restored from checkpoint state");
  return true;
}

}  // namespace saad::core
