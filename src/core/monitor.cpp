#include "core/monitor.h"

#include <cassert>
#include <stdexcept>

#include "core/log_registry.h"
#include "core/telemetry.h"
#include "core/trace_io.h"
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
  armed_ = std::make_unique<Armed>(*model_, config);
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
  for (const SynopsisView s : batch_) armed_->detector.ingest(s);
  return armed_->detector.advance_to(now);
}

void Monitor::drop_queued() {
  batch_.clear();
  channel_.drain(batch_);
  batch_.clear();
}

std::vector<Anomaly> Monitor::finish() {
  if (armed_ == nullptr) return {};
  auto out = poll(clock_->now());
  auto tail = armed_->detector.finish();
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

}  // namespace saad::core
