#include "core/analyzer_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <tuple>

#include "core/telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace saad::core {

namespace {

// Pool-level metrics; per-worker series live on the Worker structs.
struct PoolMetrics {
  obs::Counter& ingested;
  obs::Counter& dispatch_batches;
  obs::Histogram& dispatch_batch_size;
  obs::Histogram& merge_us;
  obs::Gauge& workers;
  obs::Counter& model_swaps;
  obs::Gauge& model_epoch;

  PoolMetrics()
      : ingested(obs::MetricsRegistry::global().counter(
            "saad_analyzer_ingested_total",
            "Synopses routed into the analyzer pool.")),
        dispatch_batches(obs::MetricsRegistry::global().counter(
            "saad_analyzer_dispatch_batches_total",
            "Ingest batches handed to worker queues.")),
        dispatch_batch_size(obs::MetricsRegistry::global().histogram(
            "saad_analyzer_dispatch_batch_size",
            "Synopses per dispatched worker batch.", obs::size_bounds())),
        merge_us(obs::MetricsRegistry::global().histogram(
            "saad_analyzer_merge_us",
            "Window-close barrier latency: flush + worker close + "
            "deterministic merge, microseconds.",
            obs::latency_bounds_us())),
        workers(obs::MetricsRegistry::global().gauge(
            "saad_analyzer_workers",
            "Worker threads of the most recently constructed pool (1 = "
            "inline serial path).")),
        model_swaps(obs::MetricsRegistry::global().counter(
            "saad_analyzer_model_swaps_total",
            "Hot model reloads applied at a window boundary.")),
        model_epoch(obs::MetricsRegistry::global().gauge(
            "saad_analyzer_model_epoch",
            "Model epoch of the most recently constructed pool (0 = the "
            "construction model, +1 per applied swap).")) {}

  static PoolMetrics& get() {
    static PoolMetrics* metrics = new PoolMetrics();
    return *metrics;
  }
};

obs::Counter& worker_counter(const char* name, const char* help,
                             std::size_t index) {
  return obs::MetricsRegistry::global().counter(
      name, help,
      {{"worker", std::to_string(index % obs::kMaxIndexedLabels)}});
}

std::uint64_t mix64(std::uint64_t x) {
  // SplitMix64 finalizer: full avalanche, so consecutive host/stage ids
  // spread evenly over the partitions.
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace

void detail::register_analyzer_pool_metrics() {
  PoolMetrics::get();
  // The per-worker families register one series per constructed worker;
  // force index 0 so the families exist even for serial-path commands.
  worker_counter("saad_analyzer_worker_busy_us_total",
                 "Microseconds each worker spent processing jobs (worker "
                 "label is the worker index mod 16).",
                 0);
  worker_counter("saad_analyzer_worker_jobs_total",
                 "Jobs (ingest batches and window closes) each worker "
                 "completed.",
                 0);
}

std::size_t AnalyzerPool::partition(HostId host, StageId stage,
                                    std::size_t n) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(host) << 32) ^ static_cast<std::uint64_t>(stage);
  return static_cast<std::size_t>(mix64(key) % n);
}

AnalyzerPool::AnalyzerPool(const OutlierModel* model, DetectorConfig config)
    : model_(model), config_(config) {
  assert(model_ != nullptr);
  std::size_t n = config_.analyzer_threads;
  if (n == 0) n = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  // Bonferroni counts tests across the whole window — a partition cannot see
  // that count locally, so the pool stays serial to keep verdicts exact.
  if (config_.bonferroni) n = 1;
  if (n <= 1) {
    serial_ = std::make_unique<AnomalyDetector>(model_, config_);
    if constexpr (obs::kMetricsEnabled) PoolMetrics::get().workers.set(1);
    return;
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->detector = std::make_unique<AnomalyDetector>(model_, config_);
    worker->pending.reserve(kDispatchBatch);
    if constexpr (obs::kMetricsEnabled) {
      worker->busy_us = &worker_counter(
          "saad_analyzer_worker_busy_us_total",
          "Microseconds each worker spent processing jobs (worker label is "
          "the worker index mod 16).",
          i);
      worker->jobs_done = &worker_counter(
          "saad_analyzer_worker_jobs_total",
          "Jobs (ingest batches and window closes) each worker completed.",
          i);
    }
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_)
    worker->thread = std::thread([this, w = worker.get()] { worker_loop(*w); });
  if constexpr (obs::kMetricsEnabled) {
    PoolMetrics::get().workers.set(static_cast<std::int64_t>(n));
  }
  obs::FlightRecorder::global().record(
      obs::EventKind::kWorkerStart, "analyzer pool: %zu workers started", n);
}

AnalyzerPool::~AnalyzerPool() {
  for (auto& worker : workers_) {
    {
      std::lock_guard lock(worker->mu);
      worker->stop = true;
    }
    worker->cv.notify_one();
  }
  for (auto& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
  if (!workers_.empty()) {
    obs::FlightRecorder::global().record(
        obs::EventKind::kWorkerStop, "analyzer pool: %zu workers joined",
        workers_.size());
  }
}

void AnalyzerPool::worker_loop(Worker& worker) {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(worker.mu);
      worker.cv.wait(lock,
                     [&] { return worker.stop || !worker.jobs.empty(); });
      if (worker.jobs.empty()) return;  // stop && drained
      job = std::move(worker.jobs.front());
      worker.jobs.pop_front();
    }
    std::chrono::steady_clock::time_point job_begin;
    if constexpr (obs::kMetricsEnabled)
      job_begin = std::chrono::steady_clock::now();
    for (const auto& s : job.batch) worker.detector->ingest(s);
    if (job.close) {
      *job.out = job.close_all ? worker.detector->finish()
                               : worker.detector->advance_to(job.now);
    }
    if (job.save_out != nullptr) worker.detector->save_state(*job.save_out);
    if constexpr (obs::kMetricsEnabled) {
      worker.busy_us->inc(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - job_begin)
              .count()));
      worker.jobs_done->inc();
    }
    if (job.close || job.save_out != nullptr) {
      {
        std::lock_guard lock(done_mu_);
        outstanding_--;
      }
      done_cv_.notify_one();
    }
  }
}

void AnalyzerPool::enqueue(Worker& worker, Job job) {
  {
    std::lock_guard lock(worker.mu);
    worker.jobs.push_back(std::move(job));
  }
  worker.cv.notify_one();
}

void AnalyzerPool::flush_pending(Worker& worker) {
  if (worker.pending.empty()) return;
  if constexpr (obs::kMetricsEnabled) {
    auto& metrics = PoolMetrics::get();
    metrics.dispatch_batches.inc();
    metrics.dispatch_batch_size.observe(
        static_cast<std::int64_t>(worker.pending.size()));
  }
  Job job;
  job.batch.swap(worker.pending);
  worker.pending.reserve(kDispatchBatch);
  enqueue(worker, std::move(job));
}

void AnalyzerPool::ingest(const Synopsis& synopsis) {
  ingested_++;
  if constexpr (obs::kMetricsEnabled) PoolMetrics::get().ingested.inc();
  if (serial_ != nullptr) {
    serial_->ingest(synopsis);
    return;
  }
  Worker& worker =
      *workers_[partition(synopsis.host, synopsis.stage, workers_.size())];
  worker.pending.push_back(synopsis);
  if (worker.pending.size() >= kDispatchBatch) flush_pending(worker);
}

void AnalyzerPool::apply_pending_model() {
  if (pending_model_ == nullptr) return;
  if (serial_ != nullptr) {
    serial_->rebind_model(pending_model_);
  } else {
    // Workers are idle (the caller just waited out a barrier, and ingest is
    // single-threaded with the caller); the next enqueue's mutex handoff
    // orders these writes before any worker touches its detector again.
    for (auto& worker : workers_) worker->detector->rebind_model(pending_model_);
  }
  model_ = pending_model_;
  pending_model_ = nullptr;
  ++model_epoch_;
  if constexpr (obs::kMetricsEnabled) {
    auto& metrics = PoolMetrics::get();
    metrics.model_swaps.inc();
    metrics.model_epoch.set(static_cast<std::int64_t>(model_epoch_));
  }
  obs::FlightRecorder::global().record(
      obs::EventKind::kModelReload,
      "analyzer pool: model swapped at window boundary (epoch %llu)",
      static_cast<unsigned long long>(model_epoch_));
}

void AnalyzerPool::swap_model(const OutlierModel* model) {
  assert(model != nullptr);
  pending_model_ = model;
}

void AnalyzerPool::save_state(std::vector<std::uint8_t>& out) {
  if (serial_ != nullptr) {
    serial_->save_state(out);
    return;
  }
  std::vector<std::vector<std::uint8_t>> slots(workers_.size());
  {
    std::lock_guard lock(done_mu_);
    outstanding_ = workers_.size();
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    flush_pending(*workers_[i]);
    Job job;
    job.save_out = &slots[i];
    enqueue(*workers_[i], std::move(job));
  }
  {
    std::unique_lock lock(done_mu_);
    done_cv_.wait(lock, [&] { return outstanding_ == 0; });
  }
  // Fold the per-worker states into one canonical state. Partitions own
  // disjoint (host, stage) keys, so the merge is a disjoint union; cursors
  // max (a worker that saw no traffic lags the global close cursor).
  AnomalyDetector scratch(model_, config_);
  for (const auto& slot : slots) {
    const bool ok = scratch.restore_state(slot, /*merge=*/true);
    assert(ok);
    (void)ok;
  }
  scratch.ingested_ = ingested_;  // pool-level count is authoritative
  scratch.save_state(out);
}

bool AnalyzerPool::restore_state(std::span<const std::uint8_t> in) {
  if (serial_ != nullptr) {
    if (!serial_->restore_state(in)) return false;
    ingested_ = serial_->ingested();
    restored_next_window_ = serial_->next_window_to_close();
    return true;
  }
  AnomalyDetector scratch(model_, config_);
  if (!scratch.restore_state(in)) return false;
  ingested_ = scratch.ingested_;
  restored_next_window_ = scratch.next_window_to_close_;
  // Split the canonical state across the current partitions. Every worker
  // gets the global close cursor: a restored pool then reattributes late
  // synopses exactly like the serial path, regardless of which partitions
  // had traffic before the checkpoint. restore precedes the first ingest,
  // so workers are idle and the next enqueue's mutex handoff publishes
  // these writes to the worker threads.
  for (auto& worker : workers_) {
    worker->detector = std::make_unique<AnomalyDetector>(model_, config_);
    worker->detector->next_window_to_close_ = scratch.next_window_to_close_;
  }
  // Both sides run over model_, so the tallies' signature ids carry over.
  for (auto& [index, window] : scratch.open_windows_) {
    for (std::uint32_t k = 0; k < window.size(); ++k) {
      if (!window[k].open) continue;
      const auto& key = scratch.keys_[k];
      workers_[partition(key.host, key.stage, workers_.size())]
          ->detector->adopt(index, key.host, key.stage,
                            std::move(window[k]));
    }
  }
  return true;
}

std::vector<Anomaly> AnalyzerPool::close_windows(UsTime now, bool close_all) {
  if (serial_ != nullptr) {
    auto out = close_all ? serial_->finish() : serial_->advance_to(now);
    apply_pending_model();
    return out;
  }

  std::chrono::steady_clock::time_point merge_begin;
  if constexpr (obs::kMetricsEnabled)
    merge_begin = std::chrono::steady_clock::now();

  std::vector<std::vector<Anomaly>> slots(workers_.size());
  {
    std::lock_guard lock(done_mu_);
    outstanding_ = workers_.size();
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    flush_pending(*workers_[i]);
    Job job;
    job.close = true;
    job.now = now;
    job.close_all = close_all;
    job.out = &slots[i];
    enqueue(*workers_[i], std::move(job));
  }
  {
    std::unique_lock lock(done_mu_);
    done_cv_.wait(lock, [&] { return outstanding_ == 0; });
  }

  // A worker's close cursor only passes the windows it held, so it can trail
  // the serial cursor; give every worker the furthest one, or a late synopsis
  // would land in a window the serial detector already closed.
  std::size_t cursor = 0;
  for (const auto& worker : workers_)
    cursor = std::max(cursor, worker->detector->next_window_to_close_);
  for (auto& worker : workers_) worker->detector->next_window_to_close_ = cursor;

  std::vector<Anomaly> out;
  std::size_t total = 0;
  for (const auto& slot : slots) total += slot.size();
  out.reserve(total);
  for (auto& slot : slots)
    out.insert(out.end(), std::make_move_iterator(slot.begin()),
               std::make_move_iterator(slot.end()));
  // Reconstruct the serial emission order; at most one anomaly exists per
  // sort key, so the order (and thus the byte stream) is fully determined.
  std::sort(out.begin(), out.end(), [](const Anomaly& a, const Anomaly& b) {
    return std::tie(a.window, a.host, a.stage, a.kind) <
           std::tie(b.window, b.host, b.stage, b.kind);
  });
  // The barrier just drained every worker: this is a window boundary, the
  // only point a staged hot model reload may take effect.
  apply_pending_model();
  if constexpr (obs::kMetricsEnabled) {
    PoolMetrics::get().merge_us.observe(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - merge_begin)
            .count());
  }
  return out;
}

std::vector<Anomaly> AnalyzerPool::advance_to(UsTime now) {
  return close_windows(now, /*close_all=*/false);
}

std::vector<Anomaly> AnalyzerPool::finish() {
  return close_windows(/*now=*/0, /*close_all=*/true);
}

}  // namespace saad::core
