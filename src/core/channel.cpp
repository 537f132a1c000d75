#include "core/channel.h"

#include <algorithm>

#include "common/thread_index.h"
#include "core/telemetry.h"
#include "obs/metrics.h"

namespace saad::core {

namespace {

// Process-wide channel metrics (all SynopsisChannel instances accumulate into
// the same families — the Prometheus model). Built once, on first use, from
// the global registry; the references stay valid for the process lifetime.
struct ChannelMetrics {
  obs::Counter& enqueued;
  obs::Counter& dequeued;
  obs::Counter& bytes;
  obs::Counter& drains;
  obs::Histogram& batch_size;
  std::vector<obs::Gauge*> shard_depth;  // label shard="i", i mod cap

  ChannelMetrics()
      : enqueued(obs::MetricsRegistry::global().counter(
            "saad_channel_enqueued_total",
            "Synopses made visible to drain() (direct push or producer "
            "flush).")),
        dequeued(obs::MetricsRegistry::global().counter(
            "saad_channel_dequeued_total",
            "Synopses handed to the consumer by drain().")),
        bytes(obs::MetricsRegistry::global().counter(
            "saad_channel_bytes_total",
            "Wire volume (encoded bytes) of enqueued synopses.")),
        drains(obs::MetricsRegistry::global().counter(
            "saad_channel_drains_total", "Consumer drain() calls.")),
        batch_size(obs::MetricsRegistry::global().histogram(
            "saad_channel_producer_batch_size",
            "Synopses per producer flush (batched path).",
            obs::size_bounds())) {
    shard_depth.reserve(obs::kMaxIndexedLabels);
    for (std::size_t i = 0; i < obs::kMaxIndexedLabels; ++i) {
      shard_depth.push_back(&obs::MetricsRegistry::global().gauge(
          "saad_channel_depth",
          "Synopses currently queued, per shard (shard label is the shard "
          "index mod 16).",
          {{"shard", std::to_string(i)}}));
    }
  }

  obs::Gauge& depth(std::size_t shard) {
    return *shard_depth[shard % shard_depth.size()];
  }

  static ChannelMetrics& get() {
    static ChannelMetrics* metrics = new ChannelMetrics();
    return *metrics;
  }
};

}  // namespace

void detail::register_channel_metrics() { ChannelMetrics::get(); }

SynopsisChannel::SynopsisChannel(std::size_t shards)
    : shards_(shards == 0 ? 1 : shards) {}

void SynopsisChannel::push(SynopsisView s) {
  const std::size_t wire = encoded_size(s);  // compute outside the lock
  // Stable per thread, so a single producer thread's synopses stay FIFO
  // within one shard.
  const std::size_t shard_index = thread_index() % shards_.size();
  const UsTime end = s.start + s.duration;
  Shard& shard = shards_[shard_index];
  {
    std::lock_guard lock(shard.mu);
    shard.items.append(s);
    shard.newest_end = std::max(shard.newest_end, end);
    shard.pushed += 1;
    shard.encoded_bytes += wire;
  }
  wake_if_due(end);
  if constexpr (obs::kMetricsEnabled) {
    auto& metrics = ChannelMetrics::get();
    metrics.enqueued.inc();
    metrics.bytes.inc(wire);
    metrics.depth(shard_index).add(1);
  }
}

void SynopsisChannel::push_batch(std::size_t shard_index,
                                 const SynopsisBatch& batch) {
  if (batch.empty()) return;
  std::uint64_t wire = 0;
  UsTime newest = kNothingQueued;
  for (const SynopsisView s : batch) {
    wire += encoded_size(s);
    newest = std::max(newest, s.start + s.duration);
  }
  Shard& shard = shards_[shard_index];
  {
    std::lock_guard lock(shard.mu);
    shard.items.append(batch);
    shard.newest_end = std::max(shard.newest_end, newest);
    shard.pushed += batch.size();
    shard.encoded_bytes += wire;
  }
  wake_if_due(newest);
  if constexpr (obs::kMetricsEnabled) {
    auto& metrics = ChannelMetrics::get();
    metrics.enqueued.inc(batch.size());
    metrics.bytes.inc(wire);
    metrics.batch_size.observe(static_cast<std::int64_t>(batch.size()));
    metrics.depth(shard_index).add(static_cast<std::int64_t>(batch.size()));
  }
}

void SynopsisChannel::drain(SynopsisBatch& out) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    SynopsisBatch& taken = out.empty() ? out : taken_;
    {
      std::lock_guard lock(shards_[i].mu);
      if (shards_[i].items.empty()) continue;
      taken.swap(shards_[i].items);
      shards_[i].newest_end = kNothingQueued;
    }
    if constexpr (obs::kMetricsEnabled) {
      auto& metrics = ChannelMetrics::get();
      metrics.dequeued.inc(taken.size());
      metrics.depth(i).sub(static_cast<std::int64_t>(taken.size()));
    }
    if (&taken == &taken_) {
      out.append(taken_);
      taken_.clear();
    }
  }
  if constexpr (obs::kMetricsEnabled) ChannelMetrics::get().drains.inc();
}

void SynopsisChannel::drain(std::vector<Synopsis>& out) {
  drain(values_);
  values_.copy_to(out);
  values_.clear();
}

bool SynopsisChannel::wait_for(UsTime end,
                               std::chrono::microseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  wake_at_.store(end);
  std::unique_lock lock(wait_mu_);
  const bool due = woken_.wait_until(lock, deadline,
                                     [&] { return queued_through(end); });
  wake_at_.store(kNoWaiter);
  return due;
}

void SynopsisChannel::wake() {
  std::lock_guard lock(wait_mu_);
  woken_.notify_one();
}

bool SynopsisChannel::queued_through(UsTime end) {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    if (shard.newest_end >= end) return true;
  }
  return false;
}

std::uint64_t SynopsisChannel::pushed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    total += shard.pushed;
  }
  return total;
}

std::uint64_t SynopsisChannel::encoded_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    total += shard.encoded_bytes;
  }
  return total;
}

// ---- Producer --------------------------------------------------------------

SynopsisChannel::Producer::Producer(SynopsisChannel& channel)
    : channel_(&channel),
      shard_(channel.next_producer_shard_.fetch_add(
                 1, std::memory_order_relaxed) %
             channel.shards_.size()) {}

SynopsisChannel::Producer::~Producer() {
  if (channel_ != nullptr) flush();
}

SynopsisChannel::Producer::Producer(Producer&& other) noexcept
    : channel_(other.channel_),
      shard_(other.shard_),
      buffer_(std::move(other.buffer_)) {
  other.channel_ = nullptr;
}

void SynopsisChannel::Producer::push(SynopsisView s) {
  buffer_.append(s);
  if (buffer_.size() >= kBatch) flush();
}

void SynopsisChannel::Producer::push(const SynopsisBatch& batch) {
  flush();
  channel_->push_batch(shard_, batch);
}

void SynopsisChannel::Producer::flush() {
  channel_->push_batch(shard_, buffer_);
  buffer_.clear();
}

}  // namespace saad::core
