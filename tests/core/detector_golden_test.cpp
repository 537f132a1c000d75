// Output goldens for the analyzer hot path. Each scenario replays a fixed
// stream through the detector (or the analyzer pool) and renders a
// transcript: every anomaly at full precision with its example signature,
// its describe() line, and the size and FNV-1a digest of save_state() bytes
// taken mid-stream. The committed goldens under tests/core/goldens/ were
// captured from the detector that keyed window tallies by Signature value in
// std::maps, so any change to verdicts, evidence, or checkpoint bytes shows
// up as a diff. On a mismatch the actual transcript is written to
// <scenario>.actual in the working directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/analyzer_pool.h"
#include "core/detector.h"
#include "core/log_registry.h"
#include "core/monitor.h"
#include "core/report.h"
#include "core/trace_io.h"
#include "faults/fault_plane.h"
#include "sim/engine.h"
#include "systems/cassandra/cassandra.h"
#include "testutil/temp_dir.h"
#include "workload/ycsb.h"

namespace saad::core {
namespace {

class Transcript {
 public:
  explicit Transcript(const LogRegistry& registry) : registry_(registry) {}

  void verdicts(const char* label, const std::vector<Anomaly>& anomalies) {
    char line[320];
    for (const auto& a : anomalies) {
      std::snprintf(line, sizeof line,
                    "%s w=%zu ws=%lld h=%u s=%u k=%d new=%d p=%.17g "
                    "prop=%.17g train=%.17g n=%llu out=%llu sig=%s\n",
                    label, a.window, static_cast<long long>(a.window_start),
                    a.host, a.stage, static_cast<int>(a.kind),
                    a.due_to_new_signature ? 1 : 0, a.p_value, a.proportion,
                    a.train_proportion, static_cast<unsigned long long>(a.n),
                    static_cast<unsigned long long>(a.outliers),
                    a.example_signature.to_string().c_str());
      text_ += line;
      text_ += "  " + describe(a, registry_) + "\n";
    }
  }

  void state(const char* label, const std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint8_t b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
    char line[128];
    std::snprintf(line, sizeof line, "%s state %zu bytes fnv1a=%016llx\n",
                  label, bytes.size(), static_cast<unsigned long long>(h));
    text_ += line;
  }

  const std::string& text() const { return text_; }

 private:
  const LogRegistry& registry_;
  std::string text_;
};

void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(SAAD_GOLDEN_DIR) + "/" + name + ".txt";
  std::ifstream in(path, std::ios::binary);
  std::stringstream golden;
  golden << in.rdbuf();
  ASSERT_FALSE(actual.empty()) << name << ": empty transcript";
  if (golden.str() == actual) return;
  // Kept in the working directory (build/tests under ctest) for diffing.
  const std::string out = name + ".actual";
  std::ofstream(out, std::ios::binary) << actual;
  ADD_FAILURE() << name << " differs from " << path << "; actual output in "
                << out;
}

// ---- Cassandra error-wal, recorded in process ------------------------------

/// Records minutes [1, 6) of a 4-node MiniCassandra under YCSB with a WAL
/// error fault on host 1 from minute 3; returns the trace path.
std::string record_cassandra(const testutil::TempDir& tmp,
                             LogRegistry& registry) {
  sim::Engine engine;
  NullSink sink;
  faults::FaultPlane plane;
  Monitor monitor(&registry, &engine.clock());
  systems::MiniCassandra cass(&engine, &registry, &monitor, &sink,
                              Level::kInfo, &plane,
                              systems::CassandraOptions{}, /*seed=*/2024);
  workload::YcsbOptions wl;
  wl.clients = 8;
  wl.think_mean = ms(10);
  wl.read_proportion = 0.2;
  wl.key_space = 20000;
  workload::YcsbDriver ycsb(&engine, &cass, wl, /*seed=*/99);
  faults::FaultSpec fault;
  fault.host = 1;
  fault.activity = faults::Activity::kWalAppend;
  fault.mode = faults::FaultMode::kError;
  fault.intensity = 1.0;
  fault.from = minutes(3);
  fault.until = minutes(6);
  plane.add(fault);
  cass.preload(20000, 100);
  cass.start();
  ycsb.start(minutes(6));
  engine.run_until(minutes(1));

  const std::string path = tmp.path("cassandra.trc");
  TraceWriter writer(path);
  monitor.start_recording(&writer);
  for (UsTime t = minutes(1); t < minutes(6);) {
    t = std::min(minutes(6), t + sec(10));
    engine.run_until(t);
    monitor.poll(engine.now());
  }
  EXPECT_TRUE(monitor.stop_recording());
  EXPECT_TRUE(writer.finalize());
  return path;
}

std::string run_cassandra(const std::string& path, const LogRegistry& registry,
                          const OutlierModel& model, std::size_t threads) {
  DetectorConfig config;
  config.analyzer_threads = threads;
  AnalyzerPool pool(&model, config);
  Transcript transcript(registry);
  TraceReader reader(path);
  Synopsis s;
  bool checkpointed = false;
  while (reader.next(s)) {
    if (s.start < minutes(3)) continue;  // the training span
    pool.ingest(s);
    if (!checkpointed && s.start >= minutes(4) + sec(30)) {
      // Mid-stream: close minute 3, then checkpoint the open windows. Tasks
      // of minute 3 that end later are re-attributed to minute 4.
      checkpointed = true;
      transcript.verdicts("mid", pool.advance_to(minutes(4)));
      std::vector<std::uint8_t> state;
      pool.save_state(state);
      transcript.state("mid", state);
    }
  }
  transcript.verdicts("tail", pool.finish());
  return transcript.text();
}

TEST(DetectorGolden, CassandraErrorWal) {
  testutil::TempDir tmp;
  LogRegistry registry;
  const std::string path = record_cassandra(tmp, registry);
  std::vector<Synopsis> training;
  {
    TraceReader reader(path);
    ASSERT_TRUE(reader.ok());
    Synopsis s;
    while (reader.next(s))
      if (s.start < minutes(3)) training.push_back(s);
  }
  const OutlierModel model = OutlierModel::train(training);
  training = {};
  const std::string serial = run_cassandra(path, registry, model, 1);
  expect_golden("cassandra_error_wal", serial);
  EXPECT_EQ(run_cassandra(path, registry, model, 4), serial);
}

// ---- Synthetic many-key stream ---------------------------------------------

constexpr int kHosts = 16;
constexpr int kStages = 24;
constexpr int kSignatures = 8;
constexpr StageId kUntrainedStage = 99;

/// Point set of signature `k` of `stage`: point 0 and 9 of the stage's ten,
/// plus a k-dependent subset of 1..8 (k in the low bits keeps the eight
/// trained signatures distinct). `novel` drops point 0: a signature
/// training never saw.
std::vector<LogPointCount> signature_points(int stage, int k, bool novel,
                                            Rng& rng) {
  std::uint32_t h = static_cast<std::uint32_t>(stage) * 2654435761u ^
                    static_cast<std::uint32_t>(k) * 40503u;
  h ^= h >> 13;
  const std::uint32_t mask = (h & 0xF8u) | static_cast<std::uint32_t>(k);
  const auto base = static_cast<LogPointId>(stage * 10);
  std::vector<LogPointCount> points;
  auto add = [&](int i) {
    points.push_back({static_cast<LogPointId>(base + i),
                      static_cast<std::uint32_t>(1 + rng.next_below(3))});
  };
  if (!novel) add(0);
  for (int i = 1; i <= 8; ++i)
    if (mask & (1u << (i - 1))) add(i);
  add(9);
  return points;
}

/// `n` synopses over `windows` windows of `window` us, in task-end order.
/// With `faults`: a few never-seen signatures, an untrained stage, point
/// lists that arrive unsorted or with a repeated point, one host whose stage
/// 7 slows down, and one whose stage 12 switches to its rarest flow.
std::vector<Synopsis> wide_stream(std::uint64_t seed, std::size_t n,
                                  int windows, UsTime window, bool faults) {
  Rng rng(seed);
  std::vector<double> cdf(kSignatures);
  double sum = 0;
  for (int k = 0; k < kSignatures; ++k) {
    sum += 1.0 / ((k + 1.0) * (k + 1.0) * std::sqrt(k + 1.0));
    cdf[static_cast<std::size_t>(k)] = sum;
  }
  for (auto& c : cdf) c /= sum;
  std::vector<Synopsis> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Synopsis s;
    s.host = static_cast<HostId>(rng.next_below(kHosts));
    s.stage = static_cast<StageId>(rng.next_below(kStages));
    s.uid = i + 1;
    s.start = static_cast<UsTime>(
        rng.next_below(static_cast<std::uint64_t>(windows * window)));
    const double u = rng.next_double();
    int k = static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin());
    k = std::min(k, kSignatures - 1);
    const bool in_fault = faults && s.start >= windows / 2 * window &&
                          s.start < (windows / 2 + 3) * window;
    if (in_fault && s.host == 9 && s.stage == 12 && rng.chance(0.5))
      k = kSignatures - 1;
    const bool novel = faults && rng.chance(0.001);
    s.log_points = signature_points(s.stage, k, novel, rng);
    double d = (200.0 + 100.0 * ((s.stage * 31 + k * 17) % 50)) *
               rng.lognormal_median(1.0, 0.3);
    double slow = 0.003;
    if (in_fault && s.host == 5 && s.stage == 7) slow = 0.4;
    if (rng.chance(slow)) d *= 5.0 + 15.0 * rng.next_double();
    s.duration = std::max<UsTime>(1, static_cast<UsTime>(d));
    if (faults && rng.chance(0.002)) {
      // Unsorted point lists and repeated points reach the detector from
      // in-process producers; both must classify by their point *set*.
      if (rng.chance(0.5)) {
        std::reverse(s.log_points.begin(), s.log_points.end());
      } else {
        s.log_points.push_back(s.log_points.front());
      }
    }
    if (faults && rng.chance(0.0005)) s.stage = kUntrainedStage;
    out.push_back(std::move(s));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Synopsis& a, const Synopsis& b) {
                     return a.start + a.duration < b.start + b.duration;
                   });
  return out;
}

std::string run_wide(const OutlierModel& model,
                     const std::vector<Synopsis>& stream, bool bonferroni) {
  DetectorConfig config;
  config.window = sec(2);
  config.bonferroni = bonferroni;
  AnomalyDetector detector(&model, config);
  LogRegistry registry;
  Transcript transcript(registry);
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) detector.ingest(stream[i]);
  transcript.verdicts("mid", detector.advance_to(stream[half].start));
  std::vector<std::uint8_t> state;
  detector.save_state(state);
  transcript.state("mid", state);
  for (std::size_t i = half; i < stream.size(); ++i) detector.ingest(stream[i]);
  // Late arrivals whose start windows have closed: re-attributed.
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    Synopsis late = stream[rng.next_below(half)];
    late.duration += sec(30);
    detector.ingest(late);
  }
  state.clear();
  detector.save_state(state);
  transcript.state("end", state);
  transcript.verdicts("tail", detector.finish());
  return transcript.text();
}

TEST(DetectorGolden, WideStreamWithNeverSeenSignatures) {
  const auto model =
      OutlierModel::train(wide_stream(21, 60000, 20, sec(2), false));
  const auto stream = wide_stream(22, 60000, 20, sec(2), true);
  expect_golden("wide_stream", run_wide(model, stream, false));
  expect_golden("wide_stream_bonferroni", run_wide(model, stream, true));
}

// ---- Model swap over an open window ----------------------------------------

/// Training stream for stages 0..3 whose stage-1 traffic includes `extra`
/// (a known flow of this model only) at a 5% share.
std::vector<Synopsis> swap_training(std::uint64_t seed, LogPointId extra) {
  Rng rng(seed);
  std::vector<Synopsis> out;
  for (int i = 0; i < 20000; ++i) {
    Synopsis s;
    s.host = static_cast<HostId>(rng.next_below(4));
    s.stage = static_cast<StageId>(rng.next_below(4));
    s.start = static_cast<UsTime>(i) * 500;
    const auto base = static_cast<LogPointId>(s.stage * 10);
    s.log_points = {{base, 1}, {static_cast<LogPointId>(base + 1), 2}};
    if (s.stage == 1 && rng.chance(0.05))
      s.log_points = {{base, 1}, {extra, 1}};
    s.duration = static_cast<UsTime>(rng.lognormal_median(ms(4), 0.2));
    out.push_back(std::move(s));
  }
  return out;
}

std::string run_swap(const OutlierModel& before, const OutlierModel& after,
                     std::size_t threads) {
  // Stage 1's {10, 15} is known only to `before`, {10, 16} only to `after`;
  // both are ingested into window 0 on either side of the swap.
  DetectorConfig config;
  config.window = sec(10);
  config.analyzer_threads = threads;
  AnalyzerPool pool(&before, config);
  LogRegistry registry;
  Transcript transcript(registry);
  Rng rng(31);
  auto feed = [&](int count, UsTime from) {
    for (int i = 0; i < count; ++i) {
      Synopsis s;
      s.host = static_cast<HostId>(rng.next_below(4));
      s.stage = static_cast<StageId>(rng.next_below(4));
      s.start = from + static_cast<UsTime>(i) * 2;
      const auto base = static_cast<LogPointId>(s.stage * 10);
      s.log_points = {{base, 1}, {static_cast<LogPointId>(base + 1), 2}};
      if (s.stage == 1) {
        const double u = rng.next_double();
        if (u < 0.15) {
          s.log_points = {{10, 1}, {15, 1}};
        } else if (u < 0.30) {
          s.log_points = {{10, 1}, {16, 1}};
        }
      }
      s.duration = static_cast<UsTime>(rng.lognormal_median(ms(4), 0.2));
      if (rng.chance(0.1)) s.duration *= 20;
      pool.ingest(s);
    }
  };
  feed(2000, 0);
  pool.swap_model(&after);
  // Closes nothing (window 0 ends at 10 s): the swap applies with window 0
  // open.
  transcript.verdicts("swap", pool.advance_to(sec(5)));
  feed(2000, sec(5));
  std::vector<std::uint8_t> state;
  pool.save_state(state);
  transcript.state("mid", state);
  transcript.verdicts("close", pool.advance_to(sec(10)));
  transcript.verdicts("tail", pool.finish());
  return transcript.text();
}

TEST(DetectorGolden, ModelSwapOverOpenWindow) {
  const auto before = OutlierModel::train(swap_training(41, 15));
  const auto after = OutlierModel::train(swap_training(42, 16));
  const std::string serial = run_swap(before, after, 1);
  expect_golden("model_swap", serial);
  EXPECT_EQ(run_swap(before, after, 4), serial);
}

}  // namespace
}  // namespace saad::core
