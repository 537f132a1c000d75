// Analyzer pipeline throughput: synopses/sec ingested *and* analyzed, end to
// end, through the production shape:
//
//   P producer threads --batched Producer handles--> sharded SynopsisChannel
//     --single consumer drain into a flat SynopsisBatch--> analyzer (one
//     serial AnomalyDetector, ingesting views of the batch's records)
//     --periodic advance_to + final finish--> anomalies
//
// The workload is synthetic and seeded: a trained model over S stages x H
// hosts with a handful of signatures per stage, then a detection stream
// spanning many windows with occasional rare signatures and stretched
// durations so both the flow and the performance tests actually run.
// Producers replay time-ordered slices of the stream.
//
// It prints one row, and serves two purposes: the SAAD_METRICS overhead
// experiment (run it from a default build and from -DSAAD_METRICS=OFF and
// compare synopses/sec) and a CI smoke of the producers -> channel ->
// analyzer path.
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/detector.h"
#include "harness.h"
#include "obs/metrics.h"

namespace {

using namespace saad;

struct Workload {
  core::OutlierModel model;
  std::vector<std::vector<core::Synopsis>> slices;  // per producer, time-ordered
  std::size_t total = 0;
  UsTime span = 0;
};

core::Synopsis make_synopsis(core::HostId host, core::StageId stage,
                             UsTime start, UsTime duration,
                             const std::vector<core::LogPointId>& points) {
  core::Synopsis s;
  s.host = host;
  s.stage = stage;
  s.uid = 0;  // unused by the analyzer
  s.start = start;
  s.duration = duration;
  for (auto p : points) s.log_points.push_back({p, 1});
  return s;
}

/// Deterministic synthetic cluster trace. Each stage has 3 common signature
/// variants plus a rare one; durations are uniform with a heavy tail.
Workload build_workload(std::uint64_t seed, std::size_t training,
                        std::size_t detection, std::size_t producers) {
  constexpr core::StageId kStages = 16;
  constexpr core::HostId kHosts = 8;

  auto gen = [&](Rng& rng, std::size_t count, double rare_rate,
                 double slow_rate, std::vector<core::Synopsis>& out) {
    const UsTime spacing = 500;  // 2000 tasks per virtual second
    for (std::size_t i = 0; i < count; ++i) {
      const auto stage = static_cast<core::StageId>(rng.next_below(kStages));
      const auto host = static_cast<core::HostId>(rng.next_below(kHosts));
      const core::LogPointId base = static_cast<core::LogPointId>(stage * 16);
      std::vector<core::LogPointId> points = {base,
                                              static_cast<core::LogPointId>(base + 1)};
      const auto variant = rng.next_below(3);
      for (std::uint64_t v = 0; v <= variant; ++v)
        points.push_back(static_cast<core::LogPointId>(base + 2 + v));
      if (rng.next_double() < rare_rate)
        points.push_back(static_cast<core::LogPointId>(base + 9));
      UsTime duration = 1000 + static_cast<UsTime>(rng.next_below(4000));
      if (rng.next_double() < slow_rate) duration *= 50;
      out.push_back(make_synopsis(host, stage,
                                  static_cast<UsTime>(i) * spacing, duration,
                                  points));
    }
  };

  Rng train_rng(seed);
  std::vector<core::Synopsis> train_trace;
  train_trace.reserve(training);
  gen(train_rng, training, 0.002, 0.01, train_trace);

  Rng detect_rng(seed ^ 0xD7);
  std::vector<core::Synopsis> stream;
  stream.reserve(detection);
  gen(detect_rng, detection, 0.01, 0.03, stream);

  Workload w{core::OutlierModel::train(train_trace), {}, stream.size(),
             stream.empty() ? 0 : stream.back().start};
  // Round-robin time slices: every producer walks the timeline in lockstep,
  // so the consumer's advance watermark stays valid for all of them.
  w.slices.resize(producers);
  for (std::size_t i = 0; i < stream.size(); ++i)
    w.slices[i % producers].push_back(std::move(stream[i]));
  return w;
}

struct RunResult {
  double seconds = 0;
  std::size_t anomalies = 0;
};

/// `live` enables periodic advance_to at a drained-content watermark — the
/// production shape, but window attribution of stragglers then depends on
/// real arrival timing, so anomaly counts can vary run to run. The default
/// (finish-only) closes windows once at the end: same tests, same
/// throughput path, and counts that are comparable across runs.
RunResult run_pipeline(const Workload& w, UsTime window, bool live) {
  core::SynopsisChannel channel;
  core::DetectorConfig config;
  config.window = window;
  core::AnomalyDetector analyzer(&w.model, config);

  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(w.slices.size());
  for (const auto& slice : w.slices) {
    producers.emplace_back([&channel, &slice] {
      auto handle = channel.producer();
      for (const auto& s : slice) handle.push(s);
    });
  }

  std::vector<core::Anomaly> anomalies;
  core::SynopsisBatch batch;
  UsTime watermark = 0;
  std::uint64_t drained = 0;
  while (drained < w.total) {
    batch.clear();
    channel.drain(batch);
    if (batch.empty()) {
      std::this_thread::yield();
      continue;
    }
    drained += batch.size();
    for (const core::SynopsisView s : batch) {
      watermark = std::max(watermark, s.start);
      analyzer.ingest(s);
    }
    // Producers advance the timeline in lockstep; two windows of slack keep
    // stragglers out of closed windows.
    if (live && watermark > 2 * window) {
      auto produced = analyzer.advance_to(watermark - 2 * window);
      anomalies.insert(anomalies.end(), produced.begin(), produced.end());
    }
  }
  for (auto& p : producers) p.join();
  batch.clear();
  channel.drain(batch);
  for (const core::SynopsisView s : batch) analyzer.ingest(s);
  auto tail = analyzer.finish();
  anomalies.insert(anomalies.end(), tail.begin(), tail.end());
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  return {seconds, anomalies.size()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace saad::bench;
  Flags flags(argc, argv);
  const std::size_t training =
      static_cast<std::size_t>(flags.get_int("training", 100000));
  const std::size_t detection =
      static_cast<std::size_t>(flags.get_int("synopses", 400000));
  const std::size_t producers =
      static_cast<std::size_t>(flags.get_int("producers", 4));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const saad::UsTime window = saad::sec(flags.get_int("window-sec", 10));
  const int repeats = static_cast<int>(flags.get_int("repeats", 3));
  const bool live = flags.get_int("live", 0) != 0;

  std::printf("=== Analyzer pipeline throughput ===\n\n");
  // The SAAD_METRICS overhead experiment compares this row between a
  // default and a -DSAAD_METRICS=OFF build (the acceptance bar is <= 3%).
  std::printf("self-telemetry: SAAD_METRICS=%s\n",
              saad::obs::kMetricsEnabled ? "ON" : "OFF");
  std::printf("hardware threads: %u, producers: %zu, stream: %zu synopses, "
              "window: %llds, mode: %s\n\n",
              std::thread::hardware_concurrency(), producers, detection,
              static_cast<long long>(window / saad::kUsPerSec),
              live ? "live periodic advance (--live=1: anomaly counts may "
                     "vary with arrival timing)"
                   : "finish-only window close (deterministic counts)");

  const Workload w = build_workload(seed, training, detection, producers);

  RunResult best{};
  for (int r = 0; r < repeats; ++r) {
    const RunResult run = run_pipeline(w, window, live);
    if (best.seconds == 0 || run.seconds < best.seconds) best = run;
  }
  std::printf("%14s %12s %10s\n", "synopses/sec", "seconds", "anomalies");
  std::printf("%14.0f %12.3f %10zu\n",
              static_cast<double>(w.total) / best.seconds, best.seconds,
              best.anomalies);
  return 0;
}
