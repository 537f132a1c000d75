// gen-wide: writes the synthetic many-key traces of the detect-wide and
// serve-wide workloads with TraceWriter.
//
// Shape: 64 hosts x 32 stages = 2048 (host, stage) keys; each stage owns 10 log points
// and 16 signatures with Zipf-skewed shares (the tail sits below the model's
// 1% flow-outlier share); per-(stage, signature) log-normal durations with a
// slow tail; task starts uniform over `windows` seconds; records written in
// task-end order, so start times arrive out of order. The detect trace adds a
// small rate of never-seen signatures and two faults (a slow stage on one
// host, a rare flow on another) so the verdict list is never empty.
//
// Inputs come only from the seed: a std::mt19937_64 stream (its output is
// fixed by the C++ standard) and this file's own conversions, so the same
// seed writes byte-identical traces on every build.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <tuple>
#include <vector>

#include "common.h"
#include "core/trace_io.h"

namespace perfbench {
namespace {

using saad::core::Synopsis;

constexpr int kPointsPerStage = 10;
constexpr int kSignaturesPerStage = 16;
constexpr double kZipfExponent = 1.6;
constexpr std::int64_t kUsPerWindow = 1'000'000;

struct Task {
  std::int64_t start;
  std::int64_t duration;
  std::uint32_t uid;
  std::uint16_t host;
  std::uint16_t stage;
  std::uint16_t signature;  // index < 16, or 16+ for a never-seen flow
  std::uint16_t counts_seed;
};

class Random {
 public:
  explicit Random(std::uint64_t seed) : gen_(seed) {}
  double uniform() {  // [0, 1)
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }
  std::uint64_t below(std::uint64_t n) { return gen_() % n; }
  double normal() {  // Box-Muller
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  std::mt19937_64 gen_;
};

/// Optional points (1..8) of signature `k` of `stage`. Point 9 is always
/// logged, point 0 by every trained signature.
std::uint32_t signature_mask(int stage, int k) {
  std::uint32_t h = static_cast<std::uint32_t>(stage * 2654435761u) ^
                    static_cast<std::uint32_t>(k * 40503u);
  h ^= h >> 13;
  h *= 0x5bd1e995u;
  h ^= h >> 15;
  // Low 4 bits carry k, so the 16 trained signatures never collide.
  return ((h & 0xF0u) | static_cast<std::uint32_t>(k)) & 0xFFu;
}

Synopsis to_synopsis(const Task& t) {
  Synopsis s;
  s.host = t.host;
  s.stage = t.stage;
  s.uid = t.uid;
  s.start = t.start;
  s.duration = t.duration;
  const int base = t.stage * kPointsPerStage;
  const bool novel = t.signature >= kSignaturesPerStage;
  const std::uint32_t mask =
      signature_mask(t.stage, t.signature % kSignaturesPerStage);
  auto count = [&](int i) {
    return 1u + ((t.counts_seed >> (i % 8)) & 1u) + (i == 0 ? 1u : 0u);
  };
  auto add = [&](int i) {
    s.log_points.push_back(
        {static_cast<saad::core::LogPointId>(base + i), count(i)});
  };
  // Every trained signature logs point 0; a never-seen one skips it.
  if (!novel) add(0);
  for (int i = 1; i <= 8; ++i)
    if (mask & (1u << (i - 1))) add(i);
  add(9);
  return s;
}

constexpr int kHosts = 64;
constexpr int kStages = 32;

struct Shape {
  int windows = 60;
  std::int64_t synopses = 1'000'000;
  bool faults = false;
};

/// Generates, sorts by end time, and writes one trace. Returns synopses.
std::int64_t write_trace(const std::string& path, const Shape& shape,
                         std::uint64_t seed) {
  Random rng(seed);
  std::vector<double> cdf(kSignaturesPerStage);
  double sum = 0;
  for (int k = 0; k < kSignaturesPerStage; ++k) {
    sum += 1.0 / std::pow(k + 1.0, kZipfExponent);
    cdf[k] = sum;
  }
  for (auto& c : cdf) c /= sum;

  const std::int64_t span_us = shape.windows * kUsPerWindow;
  const int fault_from = shape.windows / 2;
  const int fault_until = fault_from + std::max(2, shape.windows / 10);
  std::vector<Task> tasks(static_cast<std::size_t>(shape.synopses));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Task& t = tasks[i];
    t.host = static_cast<std::uint16_t>(rng.below(kHosts));
    t.stage = static_cast<std::uint16_t>(rng.below(kStages));
    t.start = static_cast<std::int64_t>(rng.uniform() *
                                        static_cast<double>(span_us));
    const double u = rng.uniform();
    t.signature = static_cast<std::uint16_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (t.signature >= kSignaturesPerStage) t.signature = kSignaturesPerStage - 1;
    const int window = static_cast<int>(t.start / kUsPerWindow);
    const bool in_fault = shape.faults && window >= fault_from &&
                          window < fault_until;
    // Fault 2: host 9's stage 12 switches to its rarest flow.
    if (in_fault && t.host == 9 && t.stage == 12 && rng.uniform() < 0.5)
      t.signature = kSignaturesPerStage - 1;
    // A small rate of never-seen signatures (flow anomalies by rule ii).
    if (shape.faults && rng.uniform() < 2e-6)
      t.signature = static_cast<std::uint16_t>(kSignaturesPerStage + t.signature);
    const double base_us =
        200.0 + 100.0 * static_cast<double>((t.stage * 31 + t.signature * 17) % 50);
    double d = base_us * std::exp(0.3 * rng.normal());
    double slow = 0.003;
    // Fault 1: host 5's stage 7 slows down.
    if (in_fault && t.host == 5 && t.stage == 7) slow = 0.4;
    if (rng.uniform() < slow) d *= 5.0 + 15.0 * rng.uniform();
    t.duration = std::max<std::int64_t>(1, static_cast<std::int64_t>(d));
    t.counts_seed = static_cast<std::uint16_t>(rng.below(1 << 16));
  }
  // Task-end order with a full tie-break, so the order never depends on
  // the sort implementation.
  std::sort(tasks.begin(), tasks.end(), [](const Task& a, const Task& b) {
    const auto key = [](const Task& t) {
      return std::tuple(t.start + t.duration, t.start, t.host, t.stage,
                        t.signature, t.counts_seed);
    };
    return key(a) < key(b);
  });
  saad::core::TraceWriter writer(path);
  std::uint32_t uid = 1;
  for (auto& t : tasks) {
    t.uid = uid++;
    if (!writer.append(to_synopsis(t))) return -1;
  }
  if (!writer.finalize()) return -1;
  return static_cast<std::int64_t>(writer.synopses_written());
}

}  // namespace

int cmd_gen_wide(const Args& args) {
  const std::string dir = args.get("out-dir", ".");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  Shape train;
  train.windows = static_cast<int>(args.get_int("train-windows", 30));
  train.synopses = args.get_int("train-synopses", 500'000);
  Shape detect = train;
  detect.windows = static_cast<int>(args.get_int("windows", 60));
  detect.synopses = args.get_int("synopses", 1'000'000);
  detect.faults = true;

  const auto trained = write_trace(dir + "/clean.trc", train, seed * 2 + 1);
  const auto detected = write_trace(dir + "/faulty.trc", detect, seed * 2 + 2);
  if (trained < 0 || detected < 0) {
    std::fprintf(stderr, "gen-wide: cannot write traces under %s\n",
                 dir.c_str());
    return 1;
  }
  JsonOut out;
  out.num("train_synopses", static_cast<double>(trained));
  out.num("synopses", static_cast<double>(detected));
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace perfbench
