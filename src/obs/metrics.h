// Self-telemetry metrics for the SAAD pipeline itself (not the monitored
// servers): a lock-light registry of monotonic counters, gauges, and
// fixed-bucket histograms, scraped into Prometheus text or JSON by
// obs/exposition.h.
//
// Hot-path cost model: incrementing a Counter or observing into a Histogram
// is a single relaxed atomic add on a per-thread sharded cell (threads are
// round-robined over kThreadCells cache-line-sized cells by
// common/thread_index.h, so concurrent writers almost never touch the same
// line). Aggregation happens only on scrape, which sums the cells — scrapes
// may therefore see a value mid-update, which is the normal Prometheus
// consistency model. Registration (counter(), gauge(), histogram()) takes a
// mutex and allocates; do it once at setup and keep the returned reference,
// never per event.
//
// Compile-time escape hatch: configuring with -DSAAD_METRICS=OFF defines
// SAAD_METRICS_DISABLED, which turns every mutation (inc/add/sub/set/observe)
// into an empty inline function — call sites compile to nothing, and the
// exposition surfaces render the registered families with zero values.
// kMetricsEnabled lets tests and tools branch on the mode.
//
// Naming convention (enforced by assert in the registry):
// saad_<subsystem>_<name>[_<unit>][_total], e.g.
// saad_channel_enqueued_total, saad_detector_window_close_us. Label
// cardinality must stay small and bounded: label values are shard/worker
// indexes capped by the instrumentation (mod kMaxIndexedLabels), never ids
// from the monitored workload (hosts, stages, signatures).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_index.h"

namespace saad::obs {

#if defined(SAAD_METRICS_DISABLED)
inline constexpr bool kMetricsEnabled = false;
#else
inline constexpr bool kMetricsEnabled = true;
#endif

/// Sorted-insignificant list of (key, value) pairs; kept as given.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Cap the instrumentation applies to indexed labels (e.g. shard="i"):
/// indexes are taken mod this, so a pathological configuration can never
/// explode series cardinality.
inline constexpr std::size_t kMaxIndexedLabels = 16;

/// Monotonic counter. inc() is a relaxed add on a per-thread cell; value()
/// sums the cells.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) noexcept {
#if !defined(SAAD_METRICS_DISABLED)
    count_.add(n);
#else
    (void)n;
#endif
  }

  std::uint64_t value() const noexcept { return count_.value(); }

  void reset() noexcept { count_.reset(); }

 private:
  StripedCounter count_;
};

/// Up/down instantaneous value (queue depths, worker counts). A single
/// atomic: gauges are updated far less often than counters and need set().
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
#if !defined(SAAD_METRICS_DISABLED)
    value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void add(std::int64_t d) noexcept {
#if !defined(SAAD_METRICS_DISABLED)
    value_.fetch_add(d, std::memory_order_relaxed);
#else
    (void)d;
#endif
  }
  void sub(std::int64_t d) noexcept { add(-d); }

  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram over int64 samples (latencies in us, batch sizes).
/// Bucket upper bounds are inclusive and strictly increasing; a final +Inf
/// bucket is implicit. observe() is one binary search over the (small, fixed)
/// bounds plus two relaxed adds on a per-thread shard.
class Histogram {
 public:
  struct Snapshot {
    std::vector<std::uint64_t> counts;  // per bound, last entry = +Inf bucket
    std::uint64_t count = 0;            // total observations
    std::int64_t sum = 0;               // sum of observed values
  };

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(std::int64_t v) noexcept {
#if !defined(SAAD_METRICS_DISABLED)
    std::size_t lo = 0, hi = bounds_.size();
    while (lo < hi) {  // first bound >= v; bounds_.size() means +Inf
      const std::size_t mid = (lo + hi) / 2;
      if (bounds_[mid] < v)
        lo = mid + 1;
      else
        hi = mid;
    }
    Shard& shard = *shards_[thread_index() % kThreadCells];
    shard.counts[lo].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  const std::vector<std::int64_t>& bounds() const { return bounds_; }

  /// Per-bucket (non-cumulative) counts summed over shards. Exposition turns
  /// these into Prometheus's cumulative _bucket series.
  Snapshot snapshot() const {
    Snapshot snap;
    snap.counts.assign(bounds_.size() + 1, 0);
    for (const auto& shard : shards_) {
      for (std::size_t i = 0; i < snap.counts.size(); ++i)
        snap.counts[i] += shard->counts[i].load(std::memory_order_relaxed);
      snap.sum += shard->sum.load(std::memory_order_relaxed);
    }
    for (auto c : snap.counts) snap.count += c;
    return snap;
  }

  void reset() noexcept {
    for (auto& shard : shards_) {
      for (std::size_t i = 0; i <= bounds_.size(); ++i)
        shard->counts[i].store(0, std::memory_order_relaxed);
      shard->sum.store(0, std::memory_order_relaxed);
    }
  }

 private:
  friend class MetricsRegistry;

  struct Shard {
    explicit Shard(std::size_t n)
        : counts(std::make_unique<std::atomic<std::uint64_t>[]>(n)) {}
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts;  // value-initialized
    alignas(64) std::atomic<std::int64_t> sum{0};
  };

  explicit Histogram(std::vector<std::int64_t> bounds);

  std::vector<std::int64_t> bounds_;
  std::array<std::unique_ptr<Shard>, kThreadCells> shards_;
};

/// Latency bounds (microseconds) shared by the pipeline's duration
/// histograms: 50us .. 10s, roughly x2.5 per step.
std::vector<std::int64_t> latency_bounds_us();

/// Size bounds for batch/count histograms: powers of two 1 .. 4096.
std::vector<std::int64_t> size_bounds();

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };
const char* to_string(MetricType type);

/// Owns metric families. counter()/gauge()/histogram() get-or-create: the
/// same (name, labels) always returns the same instance, so independent
/// components (and repeated constructions of the same component) accumulate
/// into one process-wide series — the Prometheus model. Requesting an
/// existing name with a different type throws std::logic_error.
///
/// Metric references stay valid for the registry's lifetime; global() never
/// dies (intentionally leaked) so references held in static instrumentation
/// structs are safe through shutdown.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide default registry the pipeline instruments into.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<std::int64_t> bounds,
                       const Labels& labels = {});

  struct SeriesSnapshot {
    Labels labels;
    std::uint64_t counter_value = 0;  // type == kCounter
    std::int64_t gauge_value = 0;     // type == kGauge
    Histogram::Snapshot histogram;    // type == kHistogram
  };
  struct FamilySnapshot {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<std::int64_t> bounds;  // histograms only
    std::vector<SeriesSnapshot> series;
  };

  /// Families in registration order, series in creation order.
  std::vector<FamilySnapshot> snapshot() const;

  /// Zeroes every value, keeping all registrations. For tests and for tools
  /// that want per-run deltas out of the process-wide registry.
  void reset_values();

  std::size_t num_families() const;

 private:
  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    MetricType type;
    std::vector<std::int64_t> bounds;
    std::vector<Series> series;
  };

  Family& family_for(const std::string& name, const std::string& help,
                     MetricType type);
  Series& series_for(Family& family, const Labels& labels);

  mutable std::mutex mu_;
  std::vector<Family> families_;
};

}  // namespace saad::obs
