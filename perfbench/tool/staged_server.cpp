// staged-server: the tracker-microtask workload, an in-process Fig. 7 staged
// server in a closed loop. nproc-1 worker threads each run tasks of 4 log
// points with 500 FNV rounds before each point; one thread drains
// the synopsis channel every 5 ms (serve's idle poll cadence) and discards
// what it drains (what Monitor::poll does when idle), timing each synopsis
// from its last log point to its drain. The tracker is attached and
// detached in alternating phases of one run, so both sides of the
// normalized throughput see the same host conditions.
//
// The tracker emits straight into SynopsisChannel::push, exactly as
// Monitor::tracker() wires it; the drain is SynopsisChannel::drain, which
// Monitor::poll calls, done here directly so each synopsis can be timed.
//
// With --traced=1 it instead times the tracker and channel calls themselves
// (tracker.*, channel.* per-layer metrics).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.h"
#include "common/clock.h"
#include "core/channel.h"
#include "core/logger.h"
#include "core/tracker.h"

namespace perfbench {
namespace {

using saad::core::Synopsis;

constexpr int kPoints = 4;     // log points per task
constexpr int kWork = 500;     // FNV rounds before each log point
constexpr auto kPhase = std::chrono::milliseconds(200);
constexpr auto kDrainInterval = std::chrono::milliseconds(5);
constexpr std::size_t kTracedTasks = 200'000;

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

struct alignas(64) PaddedCount {
  std::atomic<std::uint64_t> n{0};
};

/// Lag histogram of one phase: 10 us buckets up to 100 ms, plus overflow.
class LagHistogram {
 public:
  void add(std::int64_t us) {
    ++counts_[static_cast<std::size_t>(std::clamp<std::int64_t>(us / 10, 0, kBuckets))];
    ++total_;
  }
  std::uint64_t total() const { return total_; }
  double quantile_ms(double q) const {
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > rank) return (static_cast<double>(i) + 0.5) / 100.0;
    }
    return kBuckets / 100.0;
  }
  void clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }

 private:
  static constexpr std::int64_t kBuckets = 10'000;
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets + 1);
  std::uint64_t total_ = 0;
};

struct Server {
  saad::core::LogRegistry registry;
  saad::core::StageId stage;
  std::vector<saad::core::LogPointId> points;
  saad::RealClock clock;
  saad::core::SynopsisChannel channel;
  saad::core::TaskExecutionTracker tracker{
      0, &clock, [this](const Synopsis& s) { channel.push(s); }};
  saad::core::NullSink sink;
  saad::core::Logger plain{&registry, &sink, saad::core::Level::kInfo};
  saad::core::Logger tracked{&registry, &sink, saad::core::Level::kInfo};

  explicit Server(int num_points) {
    stage = registry.register_stage("Worker");
    for (int i = 0; i < num_points; ++i)
      points.push_back(registry.register_log_point(
          stage, i == 0 ? saad::core::Level::kInfo : saad::core::Level::kDebug,
          "worker step %"));
    tracked.set_tracker(&tracker);
  }
};

/// One task: `work` FNV rounds before each of the server's log points.
inline std::uint64_t run_task(Server& server, bool with_tracker, int work,
                              std::uint64_t h) {
  if (with_tracker) server.tracker.set_context(server.stage);
  auto& logger = with_tracker ? server.tracked : server.plain;
  for (const auto p : server.points) {
    for (int w = 0; w < work; ++w) {
      h ^= static_cast<std::uint64_t>(w);
      h *= 1099511628211ull;
    }
    logger.log(p);
  }
  if (with_tracker) server.tracker.end_context();
  return h;
}

int run_closed_loop(const Args& args, int workers) {
  const double seconds = args.get_double("seconds", 5);
  const std::int64_t started = now_ns();

  Server server(kPoints);
  enum Phase : int { kUntracked = 0, kTracked = 1, kStop = 2 };
  std::atomic<int> phase{kUntracked};
  std::vector<PaddedCount> done(static_cast<std::size_t>(workers));
  std::atomic<std::uint64_t> keep{0};

  std::vector<std::thread> pool;
  for (int t = 0; t < workers; ++t) {
    pool.emplace_back([&, t] {
      std::uint64_t h = 1469598103934665603ull + static_cast<std::uint64_t>(t);
      auto& counter = done[static_cast<std::size_t>(t)].n;
      for (int p; (p = phase.load(std::memory_order_relaxed)) != kStop;) {
        h = run_task(server, p == kTracked, kWork, h);
        counter.store(counter.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
      }
      keep.fetch_add(h, std::memory_order_relaxed);
    });
  }

  // Lags of the synopses drained during each measured tracked phase. The
  // drainer reduces each finished phase to its p50 and p99 and reuses one
  // fixed histogram, so the samples never grow the process's RSS; the run
  // reports the median over phases, so one scheduler stall moves one phase,
  // not the run's figure.
  std::atomic<int> lag_slot{-1};
  LagHistogram phase_lags;
  std::vector<double> lag_p50, lag_p99;
  std::size_t lag_samples = 0;
  int lag_current = -1;
  auto close_phase = [&] {
    if (phase_lags.total() > 0) {
      lag_p50.push_back(phase_lags.quantile_ms(0.50));
      lag_p99.push_back(phase_lags.quantile_ms(0.99));
      lag_samples += phase_lags.total();
    }
    phase_lags.clear();
  };
  std::uint64_t drained = 0;
  std::atomic<bool> stop_drain{false};
  std::thread drainer([&] {
    std::vector<Synopsis> batch;
    auto drain_once = [&] {
      batch.clear();
      server.channel.drain(batch);
      const saad::UsTime now = server.clock.now();
      const int slot = lag_slot.load(std::memory_order_relaxed);
      if (slot != lag_current) {
        close_phase();
        lag_current = slot;
      }
      if (slot >= 0)
        for (const auto& s : batch) phase_lags.add(now - (s.start + s.duration));
      drained += batch.size();
    };
    while (!stop_drain.load(std::memory_order_relaxed)) {
      drain_once();
      std::this_thread::sleep_for(kDrainInterval);
    }
    drain_once();
    close_phase();
  });

  auto total_done = [&] {
    std::uint64_t sum = 0;
    for (const auto& c : done) sum += c.n.load(std::memory_order_relaxed);
    return sum;
  };

  // One discarded warm-up pair, then measured untracked/tracked pairs.
  std::this_thread::sleep_for(2 * kPhase);
  const double setup_s = static_cast<double>(now_ns() - started) / 1e9;
  std::vector<double> untracked_rates, tracked_rates, ratios;
  double tracked_cpu = 0;
  std::uint64_t tracked_synopses = 0;
  const std::int64_t measure_until =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < measure_until || tracked_rates.size() < 2) {
    double rates[2] = {0, 0};
    for (const int p : {kUntracked, kTracked}) {
      phase.store(p, std::memory_order_relaxed);
      lag_slot.store(p == kTracked ? static_cast<int>(tracked_rates.size()) : -1,
                     std::memory_order_relaxed);
      const std::uint64_t tasks_before = total_done();
      const std::uint64_t synopses_before = server.tracker.tasks_completed();
      const double cpu_before = cpu_seconds();
      const std::int64_t t0 = now_ns();
      std::this_thread::sleep_for(kPhase);
      const std::int64_t t1 = now_ns();
      rates[p] = static_cast<double>(total_done() - tasks_before) /
                 (static_cast<double>(t1 - t0) / 1e9);
      if (p == kTracked) {
        tracked_cpu += cpu_seconds() - cpu_before;
        tracked_synopses += server.tracker.tasks_completed() - synopses_before;
      }
    }
    untracked_rates.push_back(rates[kUntracked]);
    tracked_rates.push_back(rates[kTracked]);
    ratios.push_back(rates[kTracked] / rates[kUntracked]);
  }
  phase.store(kStop);
  for (auto& t : pool) t.join();
  stop_drain.store(true);
  drainer.join();

  const std::uint64_t completed = server.tracker.tasks_completed();
  JsonOut out;
  out.num("tracked_tasks_per_s", percentile(tracked_rates, 0.5));
  out.num("untracked_tasks_per_s", percentile(untracked_rates, 0.5));
  out.num("normalized_throughput", percentile(ratios, 0.5));
  out.num("pairs", static_cast<double>(ratios.size()));
  out.num("lag_p50_ms", percentile(lag_p50, 0.5));
  out.num("lag_p99_ms", percentile(lag_p99, 0.5));
  out.num("lag_samples", static_cast<double>(lag_samples));
  out.num("tasks_tracked", static_cast<double>(completed));
  out.num("drained", static_cast<double>(drained));
  out.num("cpu_us_per_synopsis",
          tracked_cpu * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, tracked_synopses)));
  out.num("setup_s", setup_s);
  out.num("unattributed_logs",
          static_cast<double>(server.tracker.unattributed_logs()));
  out.num("workers", workers);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// ---- Traced run: time the tracker and channel calls themselves. ----------

/// Runs `fn(thread_index)` on `threads` threads at once; returns wall ns.
template <class Fn>
std::int64_t on_threads(int threads, Fn fn) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      fn(t);
    });
  while (ready.load() < threads) std::this_thread::yield();
  const std::int64_t t0 = now_ns();
  go.store(true);
  for (auto& t : pool) t.join();
  return now_ns() - t0;
}

int run_traced(const Args& args, int workers) {
  const std::size_t tasks = kTracedTasks;
  const std::size_t per_thread = tasks / static_cast<std::size_t>(workers);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.get_double("seconds", 0) * 1e9);
  Spans spans(true);
  std::vector<Synopsis> sink;
  std::uint64_t drained = 0;
  auto drain = [&](saad::core::SynopsisChannel& channel) {
    Spans::Scope d(spans, "channel.drain");
    sink.clear();
    channel.drain(sink);
    drained += sink.size();
  };
  Synopsis proto;
  proto.stage = 0;
  proto.start = 1;
  proto.duration = 2;
  proto.log_points = {{0, 1}, {1, 1}, {2, 1}, {3, 1}};

  // Rounds until --seconds is used; every figure is a total over rounds.
  std::size_t rounds = 0;
  std::int64_t contended_ns = 0, push_ns = 0, producer_ns = 0;
  std::uint64_t unattributed = 0;
  do {
    Spans::Scope run(spans, "run");
    // One thread: set_context + 4 log calls + end_context, 10k per span.
    Server single(kPoints);
    for (std::size_t done = 0; done < tasks; done += 10'000) {
      {
        Spans::Scope span(spans, "tracker.task");
        for (int i = 0; i < 10'000; ++i) {
          single.tracker.set_context(single.stage);
          for (const auto p : single.points) single.tracked.log(p);
          single.tracker.end_context();
        }
      }
      drain(single.channel);
    }
    // on_log alone inside one open context.
    {
      Spans::Scope span(spans, "tracker.on_log");
      single.tracker.set_context(single.stage);
      for (std::size_t i = 0; i < tasks; ++i)
        single.tracker.on_log(single.points[i % single.points.size()]);
      single.tracker.end_context();
    }
    drain(single.channel);
    unattributed += single.tracker.unattributed_logs();

    // The same tasks on `workers` threads at once.
    Server shared(kPoints);
    {
      Spans::Scope span(spans, "tracker.task_contended");
      contended_ns += on_threads(workers, [&](int) {
        for (std::size_t i = 0; i < per_thread; ++i) {
          shared.tracker.set_context(shared.stage);
          for (const auto p : shared.points) shared.tracked.log(p);
          shared.tracker.end_context();
        }
      });
    }
    drain(shared.channel);
    unattributed += shared.tracker.unattributed_logs();

    // Direct push() and Producer::push(), contended the same way.
    saad::core::SynopsisChannel channel;
    {
      Spans::Scope span(spans, "channel.push");
      push_ns += on_threads(workers, [&](int) {
        for (std::size_t i = 0; i < per_thread; ++i) channel.push(proto);
      });
    }
    drain(channel);
    {
      Spans::Scope span(spans, "channel.producer_push");
      producer_ns += on_threads(workers, [&](int) {
        auto producer = channel.producer();
        for (std::size_t i = 0; i < per_thread; ++i) producer.push(proto);
      });
    }
    drain(channel);
    ++rounds;
  } while (now_ns() < deadline);

  // Contended costs are per operation as one thread sees it:
  // wall x threads / operations.
  const double single_ops = static_cast<double>(tasks * rounds);
  const double contended_ops = static_cast<double>(per_thread * rounds);
  JsonOut out;
  out.num("tracker.task_ns",
          static_cast<double>(spans.total("tracker.task")) / single_ops);
  out.num("tracker.on_log_ns",
          static_cast<double>(spans.total("tracker.on_log")) / single_ops);
  out.num("tracker.task_ns_contended",
          static_cast<double>(contended_ns) / contended_ops);
  out.num("tracker.unattributed_logs", static_cast<double>(unattributed));
  out.num("channel.push_ns", static_cast<double>(push_ns) / contended_ops);
  out.num("channel.producer_push_ns",
          static_cast<double>(producer_ns) / contended_ops);
  out.num("channel.drain_ns", static_cast<double>(spans.total("channel.drain")) /
                                  static_cast<double>(drained));
  out.num("traced.rounds", static_cast<double>(rounds));
  report_layers(spans, static_cast<double>(drained), rounds,
                args.get("spans-out", ""), "tracker-microtask", out);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int cmd_staged_server(const Args& args) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = std::max(1, hw - 1);
  return args.get_int("traced", 0) != 0 ? run_traced(args, workers)
                                        : run_closed_loop(args, workers);
}

}  // namespace perfbench
