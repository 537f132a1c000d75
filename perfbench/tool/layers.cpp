// layers: the traced run of the trace-driven workloads. It replays the
// pipeline in process with the public calls of each module, recording one
// span per call batch, and checks that the replay yields exactly the CLI's
// verdicts, so the layer split describes the same work.
//
//   detect (detect-cassandra, detect-wide): TraceReader::next ->
//     make_feature + OutlierModel::classify -> AnomalyDetector::ingest, then
//     finish() — what `saad_offline detect` runs, in batches of 4096.
//   serve (serve-wide): TraceReader::next -> wire encode_batch/encode_frame
//     -> FrameDecoder + decode_batch -> channel Producer push -> drain ->
//     AnalyzerPool ingest, closing windows two windows behind the watermark
//     and writing a checkpoint at every close — the path of `saad_offline
//     serve --checkpoint-dir --checkpoint-every=1`, minus the socket, in
//     batches of 256 (the sender's frame size).
//
// Standalone timings of single modules (CRC32C over the file, the synopsis
// codec, the wire codec, model load and train, the analyzer pool) run
// outside the pipeline spans and are reported on their own.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "common.h"
#include "common/crc32c.h"
#include "core/analyzer_pool.h"
#include "core/checkpoint.h"
#include "core/channel.h"
#include "core/feature.h"
#include "core/trace_io.h"
#include "net/wire.h"

namespace perfbench {
namespace {

using saad::core::Anomaly;
using saad::core::Synopsis;

volatile std::uint64_t g_sink = 0;  // results the compiler must not drop

struct Inputs {
  std::string trace;
  std::vector<std::uint8_t> model_bytes;
  saad::core::OutlierModel model;
  saad::core::LogRegistry registry;
  std::vector<std::uint8_t> registry_bytes;
  saad::core::DetectorConfig config;
  std::vector<std::string> expected;
};

/// Tracks how many distinct windows hold ingested, not yet closed synopses.
class OpenWindows {
 public:
  explicit OpenWindows(saad::UsTime window) : window_(window) {}
  void note(const Synopsis& s) {
    const auto w = static_cast<std::size_t>(std::max<saad::UsTime>(s.start, 0) / window_);
    if (w < closed_) return;
    if (w >= seen_.size()) seen_.resize(w + 1, 0);
    if (!seen_[w]) {
      seen_[w] = 1;
      ++open_;
      peak_ = std::max(peak_, open_);
    }
  }
  void closed_below(std::size_t next) {
    for (; closed_ < next && closed_ < seen_.size(); ++closed_)
      if (seen_[closed_]) --open_;
    closed_ = std::max(closed_, next);
  }
  std::size_t peak() const { return peak_; }

 private:
  saad::UsTime window_;
  std::vector<std::uint8_t> seen_;
  std::size_t closed_ = 0;
  std::size_t open_ = 0;
  std::size_t peak_ = 0;
};

struct PipelineResult {
  std::vector<Anomaly> anomalies;
  std::uint64_t synopses = 0;
  std::uint64_t blocks = 0;
  std::int64_t wall_ns = 0;  // the "run" spans (timed even when untraced)
  std::size_t open_windows_max = 0;
  std::size_t state_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
};

PipelineResult detect_pipeline(const Inputs& in, Spans& spans) {
  constexpr std::size_t kBatch = 4096;
  PipelineResult r;
  saad::core::TraceReader reader(in.trace);
  saad::core::AnomalyDetector detector(&in.model, in.config);
  OpenWindows open(in.config.window);
  std::vector<Synopsis> batch(kBatch);
  std::uint64_t flow = 0;
  std::int64_t t0 = now_ns();
  {
    Spans::Scope run(spans, "run");
    for (;;) {
      std::size_t n = 0;
      {
        Spans::Scope span(spans, "trace_io.next");
        while (n < kBatch && reader.next(batch[n])) ++n;
      }
      if (n == 0) break;
      {
        Spans::Scope span(spans, "model.classify");
        for (std::size_t i = 0; i < n; ++i)
          flow += in.model.classify(saad::core::make_feature(batch[i])).flow_outlier;
      }
      {
        Spans::Scope span(spans, "detector.ingest");
        for (std::size_t i = 0; i < n; ++i) detector.ingest(batch[i]);
      }
      for (std::size_t i = 0; i < n; ++i) open.note(batch[i]);
      r.synopses += n;
    }
  }
  r.wall_ns = now_ns() - t0;
  // Peak state, as a checkpoint would capture it (outside the run spans).
  std::vector<std::uint8_t> state;
  detector.save_state(state);
  r.state_bytes = state.size();
  t0 = now_ns();
  {
    Spans::Scope run(spans, "run");
    Spans::Scope span(spans, "detector.close");
    r.anomalies = detector.finish();
  }
  r.wall_ns += now_ns() - t0;
  r.open_windows_max = open.peak();
  r.blocks = reader.stats().blocks_total;
  g_sink = g_sink + flow;  // keeps the classify results observable
  return r;
}

PipelineResult serve_pipeline(const Inputs& in, Spans& spans,
                              const std::string& checkpoint_dir) {
  constexpr std::size_t kBatch = 256;
  PipelineResult r;
  saad::core::TraceReader reader(in.trace);
  saad::core::DetectorConfig config = in.config;
  config.analyzer_threads = 1;  // serve's default --threads
  saad::core::AnalyzerPool analyzer(&in.model, config);
  saad::core::SynopsisChannel channel;
  auto producer = channel.producer();
  saad::net::FrameDecoder decoder(/*expect_magic=*/false);
  std::filesystem::remove_all(checkpoint_dir);
  saad::core::CheckpointDir ckpt(checkpoint_dir);
  ckpt.ensure();
  OpenWindows open(config.window);
  std::vector<Synopsis> batch(kBatch), decoded, drained;
  std::vector<std::uint8_t> payload, frame;
  saad::net::Frame popped;
  saad::UsTime watermark = 0;
  std::size_t next_window = 0;
  std::uint64_t sequence = 1;
  const std::int64_t t0 = now_ns();
  {
    Spans::Scope run(spans, "run");
    for (;;) {
      std::size_t n = 0;
      {
        Spans::Scope span(spans, "trace_io.next");
        while (n < kBatch && reader.next(batch[n])) ++n;
      }
      if (n == 0) break;
      {
        Spans::Scope span(spans, "wire.encode_batch");
        payload.clear();
        frame.clear();
        saad::net::encode_batch(std::span(batch.data(), n), payload);
        saad::net::encode_frame(saad::net::FrameType::kBatch, payload, frame);
      }
      {
        Spans::Scope span(spans, "wire.decode");
        decoded.clear();
        decoder.feed(frame);
        while (decoder.next(popped))
          saad::net::decode_batch(popped.payload, decoded);
      }
      {
        Spans::Scope span(spans, "channel.producer_push");
        for (const auto& s : decoded) producer.push(s);
        producer.flush();
      }
      {
        Spans::Scope span(spans, "channel.drain");
        drained.clear();
        channel.drain(drained);
      }
      {
        Spans::Scope span(spans, "detector.ingest");
        for (const auto& s : drained) analyzer.ingest(s);
      }
      for (const auto& s : drained) {
        open.note(s);
        watermark = std::max(watermark, s.start + s.duration);
      }
      r.synopses += drained.size();
      // serve's close cursor: two windows of slack behind the watermark.
      const saad::UsTime safe =
          watermark > 2 * config.window ? watermark - 2 * config.window : 0;
      if (static_cast<saad::UsTime>(next_window + 1) * config.window > safe)
        continue;
      {
        Spans::Scope span(spans, "detector.close");
        auto closed = analyzer.advance_to(safe);
        r.anomalies.insert(r.anomalies.end(), closed.begin(), closed.end());
      }
      while (static_cast<saad::UsTime>(next_window + 1) * config.window <= safe)
        ++next_window;
      open.closed_below(next_window);
      {
        Spans::Scope span(spans, "checkpoint.write");
        saad::core::Checkpoint c;
        c.sequence = sequence++;
        c.window = config.window;
        c.threads = 1;
        c.ingested = r.synopses;
        c.model = in.model_bytes;
        c.registry = in.registry_bytes;
        analyzer.save_state(c.analyzer);
        c.anomalies = r.anomalies;
        ckpt.write(c);
        r.state_bytes = std::max(r.state_bytes, c.analyzer.size());
      }
      ++r.checkpoints;
    }
    Spans::Scope span(spans, "detector.close");
    auto tail = analyzer.finish();
    r.anomalies.insert(r.anomalies.end(), tail.begin(), tail.end());
  }
  r.wall_ns = now_ns() - t0;
  if (r.checkpoints > 0) {
    struct stat st{};
    if (::stat(ckpt.path_for(sequence - 1).c_str(), &st) == 0)
      r.checkpoint_bytes = static_cast<std::uint64_t>(st.st_size);
  }
  r.open_windows_max = open.peak();
  r.blocks = reader.stats().blocks_total;
  std::filesystem::remove_all(checkpoint_dir);
  return r;
}

/// Reads the whole trace (outside any span) for the standalone timings.
std::vector<Synopsis> load_trace(const std::string& path) {
  std::vector<Synopsis> out;
  saad::core::TraceReader reader(path);
  Synopsis s;
  while (reader.next(s)) out.push_back(s);
  return out;
}

}  // namespace

int cmd_layers(const Args& args) {
  const std::string mode = args.get("mode", "detect");
  const std::string workload = args.get("workload", mode);
  Inputs in;
  in.trace = args.get("trace", "");
  in.model_bytes = read_bytes(args.get("model", ""));
  auto model = saad::core::OutlierModel::load(in.model_bytes);
  if (!model) {
    std::fprintf(stderr, "layers: cannot load --model\n");
    return 1;
  }
  in.model = std::move(*model);
  if (args.has("registry")) {
    in.registry_bytes = read_bytes(args.get("registry", ""));
    if (!in.registry.load(in.registry_bytes)) {
      std::fprintf(stderr, "layers: cannot load --registry\n");
      return 1;
    }
  }
  in.config.window = args.get_int("window-sec", 60) * saad::kUsPerSec;
  in.expected = read_verdict_lines(args.get("expect", ""));
  const auto threads = std::thread::hardware_concurrency();
  const std::string ckpt_dir = args.get("checkpoint-dir", "ckpt-layers");

  auto run_pipeline = [&](Spans& spans) {
    return mode == "serve" ? serve_pipeline(in, spans, ckpt_dir)
                           : detect_pipeline(in, spans);
  };
  // A warm-up pass (page cache, allocator), then pairs of passes with
  // spans off and on until --seconds is used: the mean difference in wall
  // time is the tracing overhead. Every pass must reproduce the CLI.
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.get_double("seconds", 0) * 1e9);
  Spans off(false);
  run_pipeline(off);
  Spans spans(true);
  PipelineResult traced;
  std::int64_t plain_ns = 0, traced_ns = 0;
  std::size_t passes = 0;
  bool match = true;
  do {
    const PipelineResult plain = run_pipeline(off);
    traced = run_pipeline(spans);
    plain_ns += plain.wall_ns;
    traced_ns += traced.wall_ns;
    ++passes;
    match = match && verdict_lines(plain.anomalies, in.registry) == in.expected &&
            verdict_lines(traced.anomalies, in.registry) == in.expected;
  } while (now_ns() < deadline);
  const double n = static_cast<double>(traced.synopses);
  const double n_all = n * static_cast<double>(passes);

  JsonOut out;
  out.num("synopses", n);
  out.num("traced.passes", static_cast<double>(passes));
  out.num("traced.overhead_ms", static_cast<double>(traced_ns - plain_ns) / 1e6 /
                                    static_cast<double>(passes));
  out.num("trace_io.read_ns", static_cast<double>(spans.total("trace_io.next")) / n_all);
  out.num("trace_io.blocks", static_cast<double>(traced.blocks));
  const auto file_bytes = read_bytes(in.trace);
  out.num("trace_io.bytes_per_synopsis", static_cast<double>(file_bytes.size()) / n);
  out.num("detector.ingest_ns", static_cast<double>(spans.total("detector.ingest")) / n_all);
  out.num("detector.close_ns", static_cast<double>(spans.total("detector.close")) / n_all);
  out.num("detector.open_windows_max", static_cast<double>(traced.open_windows_max));
  out.num("detector.state_bytes", static_cast<double>(traced.state_bytes));
  out.num("detector.verdicts", static_cast<double>(traced.anomalies.size()));
  if (mode == "serve") {
    out.num("wire.encode_batch_ns",
            static_cast<double>(spans.total("wire.encode_batch")) / n_all);
    out.num("wire.decode_ns", static_cast<double>(spans.total("wire.decode")) / n_all);
    out.num("channel.producer_push_ns",
            static_cast<double>(spans.total("channel.producer_push")) / n_all);
    out.num("channel.drain_ns", static_cast<double>(spans.total("channel.drain")) / n_all);
    out.num("checkpoint.write_ms",
            static_cast<double>(spans.total("checkpoint.write")) / 1e6 /
                static_cast<double>(std::max<std::uint64_t>(1, traced.checkpoints * passes)));
    out.num("checkpoint.bytes", static_cast<double>(traced.checkpoint_bytes));
    out.num("checkpoint.count", static_cast<double>(traced.checkpoints));
  } else {
    out.num("model.classify_ns", static_cast<double>(spans.total("model.classify")) / n_all);
  }
  report_layers(spans, n_all, passes, args.get("spans-out", ""), workload, out);

  // ---- Standalone module timings (not part of the span ranking). --------
  {
    const std::int64_t t0 = now_ns();
    std::uint32_t crc = 0;
    for (std::size_t off = 0; off < file_bytes.size(); off += 1 << 20) {
      const std::size_t len = std::min<std::size_t>(1 << 20, file_bytes.size() - off);
      crc = saad::crc32c(std::span(file_bytes.data() + off, len), crc);
    }
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    out.num("crc32c.mb_per_s", static_cast<double>(file_bytes.size()) / 1e6 / secs);
    out.num("crc32c.ns_per_synopsis", secs * 1e9 / n);
    g_sink = g_sink + crc;
  }
  {
    std::vector<double> load_us;
    for (int i = 0; i < 5; ++i) {
      const std::int64_t t0 = now_ns();
      auto m = saad::core::OutlierModel::load(in.model_bytes);
      load_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      if (!m) return 1;
    }
    out.num("model.load_us", percentile(load_us, 0.5));
  }
  if (args.has("clean")) {
    const auto clean = load_trace(args.get("clean", ""));
    const std::int64_t t0 = now_ns();
    const auto trained = saad::core::OutlierModel::train(clean);
    out.num("model.train_s", static_cast<double>(now_ns() - t0) / 1e9);
    out.num("model.trained_tasks", static_cast<double>(trained.trained_tasks()));
  }
  const auto all = load_trace(in.trace);
  {
    std::vector<std::uint8_t> buf;
    std::int64_t t0 = now_ns();
    for (const auto& s : all) saad::core::encode_synopsis(s, buf);
    out.num("synopsis.encode_ns", static_cast<double>(now_ns() - t0) / n);
    std::span<const std::uint8_t> rest(buf);
    Synopsis s;
    std::size_t decoded = 0;
    t0 = now_ns();
    while (!rest.empty() && saad::core::decode_synopsis(rest, s)) ++decoded;
    out.num("synopsis.decode_ns", static_cast<double>(now_ns() - t0) / n);
    match = match && decoded == all.size();
  }
  if (mode != "serve") {
    // Wire codec over the same synopses, in the sender's 256-synopsis frames.
    std::vector<std::uint8_t> payload, frame;
    std::vector<Synopsis> decoded;
    saad::net::FrameDecoder decoder(false);
    saad::net::Frame popped;
    std::int64_t enc = 0, dec = 0;
    for (std::size_t i = 0; i < all.size(); i += 256) {
      const std::size_t len = std::min<std::size_t>(256, all.size() - i);
      std::int64_t t0 = now_ns();
      payload.clear();
      frame.clear();
      saad::net::encode_batch(std::span(all.data() + i, len), payload);
      saad::net::encode_frame(saad::net::FrameType::kBatch, payload, frame);
      enc += now_ns() - t0;
      t0 = now_ns();
      decoded.clear();
      decoder.feed(frame);
      while (decoder.next(popped)) saad::net::decode_batch(popped.payload, decoded);
      dec += now_ns() - t0;
    }
    out.num("wire.encode_batch_ns", static_cast<double>(enc) / n);
    out.num("wire.decode_ns", static_cast<double>(dec) / n);

    // Analyzer pool at `threads` vs the serial detector, on the same input.
    saad::core::DetectorConfig config = in.config;
    config.analyzer_threads = threads;  // what `detect --threads=<nproc>` runs
    saad::core::AnalyzerPool pool(&in.model, config);
    std::int64_t t0 = now_ns();
    for (const auto& s : all) pool.ingest(s);
    const std::int64_t ingest_ns = now_ns() - t0;
    t0 = now_ns();
    const auto pooled = pool.finish();
    const std::int64_t close_ns = now_ns() - t0;
    out.num("analyzer_pool.ingest_ns", static_cast<double>(ingest_ns) / n);
    out.num("analyzer_pool.close_ns", static_cast<double>(close_ns) / n);
    out.num("analyzer_pool.threads", static_cast<double>(pool.threads()));
    out.num("analyzer_pool.speedup",
            static_cast<double>(spans.total("detector.ingest") +
                                spans.total("detector.close")) /
                static_cast<double>(passes) /
                static_cast<double>(ingest_ns + close_ns));
    match = match && verdict_lines(pooled, in.registry) == in.expected;
  }
  out.num("verdicts_match", match ? 1 : 0);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace perfbench
