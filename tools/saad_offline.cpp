// saad_offline — command-line front end for the train-offline /
// detect-offline workflow on synopsis trace files.
//
//   record  run a simulated cluster, stream the synopsis trace to disk
//           (crash-safe v2 framing) + the log template dictionary (and
//           optionally inject a fault; Cassandra only)
//   train   build an outlier model from a fault-free trace
//   detect  replay a trace against a model; print anomalies, optionally
//           write a self-contained HTML report
//   info    summarize a trace file, including per-block integrity
//   serve   run the analyzer as a long-lived network service: accept
//           SAADNET1 connections (net/server.h) and detect on the live
//           synopsis stream. With --checkpoint-dir the serving state
//           (model, registry, open windows, verdicts) checkpoints on
//           window close and on session end, and a restart with the same
//           flag resumes from the newest valid checkpoint; SIGHUP re-reads
//           --model and hot-swaps it at the next window boundary without
//           dropping client connections
//   replay  stream a recorded trace to a running `serve` over TCP at
//           recorded or accelerated pacing (net/client.h); --skip/--limit
//           select a synopsis range (for staged/crash-restart runs)
//
// train/detect/info stream the trace through TraceReader block by block,
// so damaged files degrade to a warning about skipped blocks or a torn tail
// instead of a hard failure. Legacy v1 traces are refused with a message.
//
// Example session:
//   saad_offline record --system=cassandra --minutes=6
//       --trace=clean.trc --registry=reg.bin
//   saad_offline train  --trace=clean.trc --model=model.bin
//   saad_offline record --system=cassandra --minutes=6 --fault=error-wal
//       --trace=faulty.trc --registry=reg.bin
//   saad_offline detect --trace=faulty.trc --model=model.bin
//       --registry=reg.bin --html=report.html
// (each command is a single line; wrapped here for readability)
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common/table.h"
#include "core/checkpoint.h"
#include "core/live_analyzer.h"
#include "core/report_html.h"
#include "core/saad.h"
#include "core/telemetry.h"
#include "core/trace_io.h"
#include "net/client.h"
#include "net/http.h"
#include "net/server.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "systems/cassandra/cassandra.h"
#include "systems/hbase/hbase.h"
#include "workload/ycsb.h"

namespace {

using namespace saad;

struct Args {
  std::string command;
  std::string trace, model, registry, html, system = "cassandra";
  std::string fault;
  std::string metrics_out;  // Prometheus text snapshot written on exit
  bool stats = false;       // detect/serve: live per-window summaries
  long long run_minutes = 6;
  long long window_sec = 60;
  std::uint64_t seed = 1;
  // serve
  long long listen = -1;      // TCP port (0 = ephemeral); -1 = not given
  std::string port_file;      // write the bound port here (for scripts)
  bool once = false;          // exit after the first completed session
  std::string checkpoint_dir;      // warm-restart checkpoints (core/checkpoint.h)
  long long checkpoint_every = 1;  // checkpoint every N window-close barriers
  long long admin_port = -1;       // admin HTTP plane (0 = ephemeral); -1 = off
  std::string admin_port_file;     // write the bound admin port here
  std::string trace_out;           // Chrome trace JSON of sampled spans on exit
  long long span_every = 64;       // span sample rate (1 in N batches)
  // replay
  std::string connect;        // HOST:PORT of a running `serve`
  std::string pace = "fast";  // fast | recorded
  long long speed = 1;        // recorded-pacing acceleration factor
  long long batch = 256;      // synopses per batch frame
  long long retries = 10;     // delivery attempts for the final flush
  std::string spool_trace;    // client spill fallback (trace v2)
  long long skip = 0;         // synopses to skip from the trace head
  long long limit = -1;       // max synopses to stream (-1 = all)
};

long long parse_int(const std::string& v, const char* key) {
  try {
    std::size_t used = 0;
    const long long parsed = std::stoll(v, &used);
    if (used == v.size()) return parsed;
  } catch (const std::exception&) {
  }
  std::fprintf(stderr, "invalid --%s=%s (expected an integer)\n", key,
               v.c_str());
  std::exit(2);
}

// Integer option with a closed range enforced at parse time: an out-of-range
// value is a usage error (exit 2), never a silent clamp.
constexpr long long kMaxCount = 1'000'000'000'000LL;  // --skip/--limit ceiling

long long parse_int_range(const std::string& v, const char* key, long long lo,
                          long long hi) {
  const long long parsed = parse_int(v, key);
  if (parsed < lo || parsed > hi) {
    std::fprintf(stderr, "invalid --%s=%s (expected %lld..%lld)\n", key,
                 v.c_str(), lo, hi);
    std::exit(2);
  }
  return parsed;
}

Args parse(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    // --threads=N belonged to the retired analyzer pool; scripts still pass
    // it, so it is accepted and ignored.
    bool known = arg == "--stats" || arg == "--once" ||
                 arg.rfind("--threads=", 0) == 0;
    auto value = [&](const char* key) -> std::string {
      const std::string prefix = std::string("--") + key + "=";
      if (arg.rfind(prefix, 0) != 0) return {};
      known = true;
      return arg.substr(prefix.size());
    };
    if (auto v = value("trace"); !v.empty()) args.trace = v;
    if (auto v = value("model"); !v.empty()) args.model = v;
    if (auto v = value("registry"); !v.empty()) args.registry = v;
    if (auto v = value("html"); !v.empty()) args.html = v;
    if (auto v = value("system"); !v.empty()) args.system = v;
    if (auto v = value("fault"); !v.empty()) args.fault = v;
    if (auto v = value("metrics-out"); !v.empty()) args.metrics_out = v;
    if (arg == "--stats") args.stats = true;
    if (auto v = value("minutes"); !v.empty())
      args.run_minutes = parse_int_range(v, "minutes", 1, 7 * 24 * 60);
    if (auto v = value("window-sec"); !v.empty())
      args.window_sec = parse_int_range(v, "window-sec", 1, 86400);
    if (auto v = value("seed"); !v.empty())
      args.seed = static_cast<std::uint64_t>(parse_int(v, "seed"));
    if (auto v = value("listen"); !v.empty())
      args.listen = parse_int_range(v, "listen", 0, 65535);
    if (auto v = value("port-file"); !v.empty()) args.port_file = v;
    if (arg == "--once") args.once = true;
    if (auto v = value("checkpoint-dir"); !v.empty()) args.checkpoint_dir = v;
    if (auto v = value("checkpoint-every"); !v.empty())
      args.checkpoint_every =
          parse_int_range(v, "checkpoint-every", 1, 1'000'000'000);
    if (auto v = value("admin-port"); !v.empty())
      args.admin_port = parse_int_range(v, "admin-port", 0, 65535);
    if (auto v = value("admin-port-file"); !v.empty()) args.admin_port_file = v;
    if (auto v = value("trace-out"); !v.empty()) args.trace_out = v;
    if (auto v = value("span-every"); !v.empty())
      args.span_every = parse_int_range(v, "span-every", 1, 1'000'000'000);
    if (auto v = value("skip"); !v.empty())
      args.skip = parse_int_range(v, "skip", 0, kMaxCount);
    if (auto v = value("limit"); !v.empty())
      args.limit = parse_int_range(v, "limit", -1, kMaxCount);
    if (auto v = value("connect"); !v.empty()) args.connect = v;
    if (auto v = value("pace"); !v.empty()) args.pace = v;
    if (auto v = value("speed"); !v.empty())
      args.speed = parse_int_range(v, "speed", 1, 1'000'000);
    if (auto v = value("batch"); !v.empty())
      args.batch = parse_int_range(v, "batch", 1, 1'000'000);
    if (auto v = value("retries"); !v.empty())
      args.retries = parse_int_range(v, "retries", 1, 1'000'000);
    if (auto v = value("spool-trace"); !v.empty()) args.spool_trace = v;
    // A typo must not silently drop a flag.
    if (!known) {
      std::fprintf(stderr, "saad_offline: unknown option %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

bool write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(file);
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(file)),
                                   std::istreambuf_iterator<char>());
}

// Why `reader` cannot be used: a legacy v1 file is named as such.
void report_unreadable_trace(const char* cmd, const std::string& path,
                             const core::TraceReader& reader) {
  if (reader.version() == 1) {
    std::fprintf(stderr,
                 "%s: --trace=%s is a v1 (SAADTRC1) trace, which is no longer "
                 "supported; record it again\n",
                 cmd, path.c_str());
  } else {
    std::fprintf(stderr, "%s: cannot read --trace=%s\n", cmd, path.c_str());
  }
}

// One stderr line per kind of damage a read pass tolerated, so a recovered
// trace never looks pristine.
void warn_trace_damage(const char* cmd, const core::TraceStats& stats) {
  if (stats.blocks_corrupt > 0) {
    std::fprintf(stderr,
                 "%s: warning: skipped %llu corrupt block(s) of %llu\n", cmd,
                 static_cast<unsigned long long>(stats.blocks_corrupt),
                 static_cast<unsigned long long>(stats.blocks_total));
  }
  if (stats.truncated_tail || stats.bytes_discarded > 0) {
    std::fprintf(stderr,
                 "%s: warning: discarded %llu unrecoverable byte(s)%s\n", cmd,
                 static_cast<unsigned long long>(stats.bytes_discarded),
                 stats.truncated_tail ? " (torn tail)" : "");
  }
}

int cmd_record(const Args& args) {
  if (args.trace.empty()) {
    std::fprintf(stderr, "record: --trace=<out> required\n");
    return 2;
  }
  // The faults act on lsm::Wal appends and lsm::Store flushes. MiniHBase
  // writes its WAL and flushes as HDFS block writes, which neither reaches,
  // so its trace would silently be fault-free.
  if (args.system == "hbase" && !args.fault.empty()) {
    std::fprintf(stderr,
                 "record: --fault=%s is not supported with --system=hbase "
                 "(HBase writes its WAL through HDFS, out of the fault's "
                 "reach)\n",
                 args.fault.c_str());
    return 2;
  }
  sim::Engine engine;
  core::LogRegistry registry;
  core::NullSink sink;
  faults::FaultPlane plane;
  core::Monitor monitor(&registry, &engine.clock());

  std::unique_ptr<systems::MiniCassandra> cassandra;
  std::unique_ptr<systems::MiniHdfs> hdfs;
  std::unique_ptr<systems::MiniHBase> hbase;
  workload::KvService* service = nullptr;
  if (args.system == "cassandra") {
    cassandra = std::make_unique<systems::MiniCassandra>(
        &engine, &registry, &monitor, &sink, core::Level::kInfo, &plane,
        systems::CassandraOptions{}, args.seed);
    cassandra->preload(20000, 100);
    cassandra->start();
    service = cassandra.get();
  } else if (args.system == "hbase") {
    hdfs = std::make_unique<systems::MiniHdfs>(
        &engine, &registry, &monitor, &sink, core::Level::kInfo, &plane,
        systems::HdfsOptions{}, args.seed);
    hbase = std::make_unique<systems::MiniHBase>(
        &engine, &registry, &monitor, &sink, core::Level::kInfo, &plane,
        hdfs.get(), systems::HBaseOptions{}, args.seed ^ 0xABCD);
    hbase->preload(20000, 100);
    hdfs->start();
    hbase->start();
    service = hbase.get();
  } else {
    std::fprintf(stderr, "record: unknown --system=%s (cassandra|hbase)\n",
                 args.system.c_str());
    return 2;
  }

  if (!args.fault.empty()) {
    faults::FaultSpec fault;
    fault.host = 1;
    fault.intensity = 1.0;
    fault.from = minutes(2 + args.run_minutes / 3);
    fault.until = minutes(2 + args.run_minutes);
    if (args.fault == "error-wal") {
      fault.activity = faults::Activity::kWalAppend;
      fault.mode = faults::FaultMode::kError;
    } else if (args.fault == "delay-wal") {
      fault.activity = faults::Activity::kWalAppend;
      fault.mode = faults::FaultMode::kDelay;
      fault.delay = ms(100);
    } else if (args.fault == "error-flush") {
      fault.activity = faults::Activity::kMemtableFlush;
      fault.mode = faults::FaultMode::kError;
    } else if (args.fault == "delay-flush") {
      fault.activity = faults::Activity::kMemtableFlush;
      fault.mode = faults::FaultMode::kDelay;
      fault.delay = ms(100);
    } else {
      std::fprintf(stderr, "record: unknown --fault=%s\n", args.fault.c_str());
      return 2;
    }
    plane.add(fault);
    std::printf("injecting %s on host 1, minutes %lld-%lld\n",
                args.fault.c_str(),
                static_cast<long long>(to_min(fault.from)),
                static_cast<long long>(to_min(fault.until)));
  }

  workload::YcsbOptions wl;
  wl.clients = 8;
  wl.think_mean = ms(10);
  wl.read_proportion = 0.2;
  wl.key_space = 20000;
  workload::YcsbDriver ycsb(&engine, service, wl, args.seed ^ 0x55AA);
  ycsb.start(minutes(2 + args.run_minutes));

  // Stream the capture: synopses spill to disk in checksummed blocks as the
  // run progresses (O(block) memory), and a crash mid-run loses at most the
  // synopses since the last sealed block. The file appears at --trace only
  // on clean finalize; until then it streams to --trace.tmp.
  core::TraceWriter writer(args.trace);
  if (!writer.ok()) {
    std::fprintf(stderr, "record: cannot write %s\n", args.trace.c_str());
    return 1;
  }
  engine.run_until(minutes(2));        // warm to steady state
  monitor.start_recording(&writer);    // capture from here
  const UsTime end = minutes(2 + args.run_minutes);
  for (UsTime t = minutes(2); t < end;) {
    t = std::min(end, t + sec(10));
    engine.run_until(t);
    monitor.poll(engine.now());        // hand the batch to the writer
  }
  if (!monitor.stop_recording() || !writer.finalize()) {
    std::fprintf(stderr, "record: cannot write %s\n", args.trace.c_str());
    return 1;
  }
  std::printf("wrote %llu synopses in %llu blocks (%.2f MB) to %s\n",
              static_cast<unsigned long long>(writer.synopses_written()),
              static_cast<unsigned long long>(writer.blocks_written()),
              static_cast<double>(writer.bytes_written()) / 1e6,
              args.trace.c_str());
  if (!args.registry.empty()) {
    std::vector<std::uint8_t> bytes;
    registry.save(bytes);
    if (!write_file(args.registry, bytes)) {
      std::fprintf(stderr, "record: cannot write %s\n", args.registry.c_str());
      return 1;
    }
    std::printf("wrote template dictionary (%zu stages, %zu log points) to "
                "%s\n",
                registry.num_stages(), registry.num_log_points(),
                args.registry.c_str());
  }
  return 0;
}

int cmd_train(const Args& args) {
  // Stream the file block by block through the recovering reader into the
  // trainer: a damaged trace trains on everything recoverable, with the
  // damage reported loudly.
  core::TraceReader reader(args.trace);
  if (!reader.ok()) {
    report_unreadable_trace("train", args.trace, reader);
    return 1;
  }
  core::ModelTrainer trainer;
  core::SynopsisBatch block;
  while (reader.next(block)) trainer.add(block);
  warn_trace_damage("train", reader.stats());
  const auto model = trainer.finish();
  std::vector<std::uint8_t> bytes;
  model.save(bytes);
  if (args.model.empty() || !write_file(args.model, bytes)) {
    std::fprintf(stderr, "train: cannot write --model=%s\n",
                 args.model.c_str());
    return 1;
  }
  std::printf("trained on %llu tasks across %zu stages -> %s (%zu bytes)\n",
              static_cast<unsigned long long>(model.trained_tasks()),
              model.num_stages(), args.model.c_str(), bytes.size());
  return 0;
}

// detect's and serve's engine over --model and --registry; null on failure.
std::unique_ptr<core::LiveAnalyzer> load_engine(
    const char* cmd, const Args& args, core::LiveAnalyzer::Options options) {
  auto model_bytes = read_file(args.model);
  if (!model_bytes) {
    std::fprintf(stderr, "%s: cannot read --model=%s\n", cmd,
                 args.model.c_str());
    return nullptr;
  }
  auto model = core::OutlierModel::load(*model_bytes);
  if (!model) {
    std::fprintf(stderr, "%s: %s is not a SAAD model\n", cmd,
                 args.model.c_str());
    return nullptr;
  }
  options.config.window = sec(args.window_sec);
  auto engine = std::make_unique<core::LiveAnalyzer>(
      std::move(*model), std::move(*model_bytes), std::move(options));
  if (!args.registry.empty()) {
    auto reg_bytes = read_file(args.registry);
    if (!reg_bytes || !engine->load_registry(std::move(*reg_bytes))) {
      std::fprintf(stderr, "%s: cannot load --registry=%s\n", cmd,
                   args.registry.c_str());
      return nullptr;
    }
  }
  return engine;
}

// detect's and serve's report: exit status 3 when anything was flagged.
int print_verdicts(const core::LiveAnalyzer& engine) {
  const auto& verdicts = engine.verdicts();
  std::printf("%zu anomalies in %llu synopses:\n", verdicts.size(),
              static_cast<unsigned long long>(engine.ingested()));
  for (const auto& a : verdicts)
    std::printf("  %s\n", core::describe(a, engine.registry()).c_str());
  return verdicts.empty() ? 0 : 3;
}

int cmd_detect(const Args& args) {
  core::TraceReader reader(args.trace);
  if (!reader.ok()) {
    report_unreadable_trace("detect", args.trace, reader);
    return 1;
  }
  core::LiveAnalyzer::Options live;
  live.stats = args.stats ? stdout : nullptr;
  const auto engine = load_engine("detect", args, std::move(live));
  if (!engine) return 1;
  // True streaming: synopses flow from disk block-by-block into the
  // analyzer, so detection memory is O(block) + O(open windows), not
  // O(trace).
  core::SynopsisBatch block;
  while (reader.next(block)) engine->ingest(block);
  warn_trace_damage("detect", reader.stats());
  engine->finish();
  const int rc = print_verdicts(*engine);

  if (!args.html.empty()) {
    const auto& anomalies = engine->verdicts();
    core::HtmlReportOptions options;
    options.title = "SAAD report: " + args.trace;
    std::size_t max_window = 0;
    for (const auto& a : anomalies)
      max_window = std::max(max_window, a.window + 1);
    options.num_windows = std::max<std::size_t>(max_window, 10);
    const std::string html =
        core::render_html_report(anomalies, engine->registry(), options);
    std::ofstream file(args.html, std::ios::trunc);
    file << html;
    if (!file) {
      std::fprintf(stderr, "detect: cannot write --html=%s\n",
                   args.html.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.html.c_str());
  }
  return rc;
}

// The longest `serve`'s consumer waits between drains when no window is due
// to close. It bounds the backlog a drain takes, and how soon an idle
// consumer notices --once's end of session, a SIGHUP or a SIGTERM.
constexpr std::chrono::milliseconds kDrainGap{5};

// SIGINT/SIGTERM ask a long-lived `serve` to finish windows and report.
volatile std::sig_atomic_t g_stop_requested = 0;
void on_stop_signal(int) { g_stop_requested = 1; }

// SIGHUP asks `serve` to re-read --model and hot-swap it at the next window
// boundary, without touching client connections.
volatile std::sig_atomic_t g_reload_requested = 0;
void on_reload_signal(int) { g_reload_requested = 1; }

// Runs the analyzer as a network service: SynopsisServer decodes SAADNET1
// frames into the sharded channel, and this (consumer) loop drains the
// channel into the analyzer — exactly the in-process pipeline, with a
// wire in the middle. Output format matches `detect`, so the loopback
// acceptance can diff the two verbatim.
int cmd_serve(const Args& args) {
  if (args.listen < 0 || args.listen > 65535) {
    std::fprintf(stderr, "serve: --listen=<port> required (0 = ephemeral)\n");
    return 2;
  }
  core::SynopsisChannel channel;
  net::SynopsisServer::Options server_options;
  server_options.port = static_cast<std::uint16_t>(args.listen);
  net::SynopsisServer server(&channel, server_options);

  // Spans ride along with the admin plane or --trace-out.
  const bool tracing = args.admin_port >= 0 || !args.trace_out.empty();
  obs::SpanTracer& tracer = obs::SpanTracer::global();
  const bool checkpointing = !args.checkpoint_dir.empty();
  core::CheckpointDir ckpt_dir(args.checkpoint_dir);
  // Only --stats adds to stdout; windows close as the stream passes them
  // whichever sinks are on.
  core::LiveAnalyzer::Options options;
  options.stats = args.stats ? stdout : nullptr;
  options.tracer = tracing ? &tracer : nullptr;
  options.checkpoints = checkpointing ? &ckpt_dir : nullptr;
  options.checkpoint_every = static_cast<std::uint64_t>(args.checkpoint_every);
  options.published = [&server] { return server.stats().published; };
  const auto engine = load_engine("serve", args, std::move(options));
  if (!engine) return 1;

  // Warm restart: before the listener opens, adopt the newest valid
  // checkpoint (torn or corrupt candidates are skipped loudly).
  if (checkpointing) {
    if (!ckpt_dir.ensure()) {
      std::fprintf(stderr, "serve: cannot use --checkpoint-dir=%s\n",
                   args.checkpoint_dir.c_str());
      return 1;
    }
    std::size_t corrupt = 0;
    const auto resumed = ckpt_dir.load_latest(&corrupt);
    if (corrupt > 0) {
      std::fprintf(stderr,
                   "serve: skipped %zu torn or corrupt checkpoint(s) in %s\n",
                   corrupt, args.checkpoint_dir.c_str());
    }
    if (resumed) {
      if (resumed->window != sec(args.window_sec)) {
        std::fprintf(stderr,
                     "serve: checkpoint window is %lld us but --window-sec=%lld"
                     " asks for %lld us; refusing to resume into a different "
                     "windowing\n",
                     static_cast<long long>(resumed->window), args.window_sec,
                     static_cast<long long>(sec(args.window_sec)));
        return 2;
      }
      if (const char* error = engine->resume(*resumed)) {
        std::fprintf(stderr, "serve: %s\n", error);
        return 1;
      }
      std::fprintf(stderr,
                   "serve: resumed from checkpoint %llu (%llu synopses, %zu "
                   "verdicts, model epoch %llu, watermark published=%llu "
                   "acked=%llu)\n",
                   static_cast<unsigned long long>(resumed->sequence),
                   static_cast<unsigned long long>(resumed->ingested),
                   resumed->anomalies.size(),
                   static_cast<unsigned long long>(resumed->model_epoch),
                   static_cast<unsigned long long>(resumed->published),
                   static_cast<unsigned long long>(resumed->acked));
    }
  }

  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGHUP, on_reload_signal);
  if (!server.start()) {
    std::fprintf(stderr, "serve: cannot listen on port %lld\n", args.listen);
    return 1;
  }
  std::fprintf(stderr, "serve: listening on 127.0.0.1:%u\n", server.port());
  if (!args.port_file.empty()) {
    std::ofstream pf(args.port_file, std::ios::trunc);
    pf << server.port() << "\n";
    if (!pf) {
      std::fprintf(stderr, "serve: cannot write --port-file=%s\n",
                   args.port_file.c_str());
      server.stop();
      return 1;
    }
  }

  // seed=0 pins the sampled set to batches 0, N, 2N, ... so the first
  // decoded batch is always sampled and short acceptance runs see completed
  // spans.
  if (tracing) {
    obs::SpanTracer::Options trace_options;
    trace_options.sample_every = static_cast<std::uint64_t>(args.span_every);
    trace_options.seed = 0;
    tracer.enable(std::move(trace_options));
  }
  const auto started_steady = std::chrono::steady_clock::now();

  // Admin plane: a separate HTTP listener on its own port and I/O thread,
  // so scrapes and probes can never head-of-line-block synopsis ingestion.
  // Handlers run on the admin thread and read only atomics (the engine's
  // status, server.stats()), the lock-light metrics registry, and the
  // tracer's own mutex-guarded export. All admin chatter goes to stderr —
  // stdout stays byte-identical to `detect`.
  net::AdminServer::Options admin_options;
  admin_options.port = args.admin_port < 0
                           ? 0
                           : static_cast<std::uint16_t>(args.admin_port);
  net::AdminServer admin(admin_options);
  if (args.admin_port >= 0) {
    admin.route("/metrics", [](const net::HttpRequest&) {
      net::HttpResponse r;
      r.content_type = "text/plain; version=0.0.4; charset=utf-8";
      r.body = obs::render_prometheus(obs::MetricsRegistry::global());
      return r;
    });
    admin.route("/healthz", [](const net::HttpRequest&) {
      net::HttpResponse r;
      r.body = "ok\n";
      return r;
    });
    // Ready = a client has hello'd (the first valid frame on any connection
    // is always a hello) and the window watermark has started advancing.
    admin.route("/readyz", [&](const net::HttpRequest&) {
      net::HttpResponse r;
      const bool helloed = server.stats().frames > 0;
      const bool advancing = engine->status().watermark_us.load() > 0;
      if (helloed && advancing) {
        r.body = "ready\n";
      } else {
        r.status = 503;
        r.body = helloed ? "not ready: watermark not advancing\n"
                         : "not ready: no hello yet\n";
      }
      return r;
    });
    admin.route("/statusz", [&](const net::HttpRequest&) {
      const auto stats = server.stats();
      const core::LiveStatus& live = engine->status();
      const std::int64_t ckpt_wall = live.checkpoint_wall_us.load();
      const double uptime_s =
          std::chrono::duration_cast<std::chrono::duration<double>>(
              std::chrono::steady_clock::now() - started_steady)
              .count();
      const double ckpt_age_s =
          ckpt_wall == 0
              ? -1.0
              : static_cast<double>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count() -
                    ckpt_wall) /
                    1e6;
      char buf[1536];
      std::snprintf(
          buf, sizeof(buf),
          "{\"schema_version\":1,\"command\":\"serve\","
          "\"uptime_s\":%.3f,"
          "\"build\":{\"compiler\":\"%s\",\"metrics_enabled\":%s},"
          "\"connections\":{\"active\":%llu,\"total\":%llu,"
          "\"sessions\":%llu},"
          "\"pipeline\":{\"ingested\":%llu,\"published\":%llu,"
          "\"acked\":%llu,\"watermark_us\":%lld,"
          "\"last_closed_window\":%lld,\"close_barriers\":%llu,"
          "\"verdicts\":%llu},"
          "\"checkpoint\":{\"enabled\":%s,\"sequence\":%llu,"
          "\"age_s\":%.3f},"
          "\"model\":{\"epoch\":%llu},"
          "\"spans\":{\"enabled\":%s,\"sample_every\":%llu,"
          "\"sampled\":%llu,\"completed\":%llu,\"abandoned\":%llu}}\n",
          uptime_s, __VERSION__, obs::kMetricsEnabled ? "true" : "false",
          static_cast<unsigned long long>(server.active_connections()),
          static_cast<unsigned long long>(stats.connections),
          static_cast<unsigned long long>(stats.sessions),
          static_cast<unsigned long long>(live.ingested.load()),
          static_cast<unsigned long long>(stats.published),
          static_cast<unsigned long long>(stats.published -
                                          server.outstanding()),
          static_cast<long long>(live.watermark_us.load()),
          static_cast<long long>(live.watermark_us.load() /
                                 sec(args.window_sec) - 1),
          static_cast<unsigned long long>(live.close_barriers.load()),
          static_cast<unsigned long long>(live.verdicts.load()),
          checkpointing ? "true" : "false",
          static_cast<unsigned long long>(live.checkpoint_sequence.load()),
          ckpt_age_s, static_cast<unsigned long long>(live.model_epoch.load()),
          tracing ? "true" : "false",
          static_cast<unsigned long long>(tracer.sample_every()),
          static_cast<unsigned long long>(tracer.sampled()),
          static_cast<unsigned long long>(tracer.completed_count()),
          static_cast<unsigned long long>(tracer.abandoned()));
      net::HttpResponse r;
      r.content_type = "application/json";
      r.body = buf;
      return r;
    });
    admin.route("/flightrecorder", [](const net::HttpRequest&) {
      net::HttpResponse r;
      r.body_writer = [](int fd) {
        saad::obs::FlightRecorder::global().dump_to_fd(fd);
      };
      return r;
    });
    admin.route("/spans", [&](const net::HttpRequest&) {
      net::HttpResponse r;
      r.content_type = "application/json";
      r.body = tracer.chrome_trace_json();
      r.body += "\n";
      return r;
    });
    if (!admin.start()) {
      std::fprintf(stderr, "serve: cannot listen on --admin-port=%lld\n",
                   args.admin_port);
      server.stop();
      return 1;
    }
    std::fprintf(stderr, "serve: admin plane on 127.0.0.1:%u\n", admin.port());
    if (!args.admin_port_file.empty()) {
      std::ofstream pf(args.admin_port_file, std::ios::trunc);
      pf << admin.port() << "\n";
      if (!pf) {
        std::fprintf(stderr, "serve: cannot write --admin-port-file=%s\n",
                     args.admin_port_file.c_str());
        admin.stop();
        server.stop();
        return 1;
      }
    }
  }

  core::SynopsisBatch batch;
  std::uint64_t checkpointed_sessions = 0;
  while (g_stop_requested == 0) {
    if (g_reload_requested != 0) {
      g_reload_requested = 0;
      auto bytes = read_file(args.model);
      const core::OutlierModel* staged =
          bytes ? engine->stage_model(std::move(*bytes)) : nullptr;
      if (staged == nullptr) {
        std::fprintf(stderr,
                     "serve: reload: cannot load --model=%s; keeping the "
                     "current model\n",
                     args.model.c_str());
      } else {
        std::fprintf(stderr,
                     "serve: reload: staged %s (%zu stages); swaps in at the "
                     "next window boundary\n",
                     args.model.c_str(), staged->num_stages());
      }
    }
    batch.clear();
    channel.drain(batch);
    if (batch.empty()) {
      // --once: the session is over once a hello'd connection has ended and
      // everything decoded has been published and drained.
      if (args.once && server.sessions_finished() > 0 &&
          server.active_connections() == 0 && server.drained())
        break;
      // Session end is the one quiescent point a test can line up on: every
      // synopsis the finished session carried has been decoded, published,
      // drained, and ingested, so this checkpoint sits at an exact stream
      // position (a SIGKILL now loses nothing).
      if (checkpointing &&
          server.sessions_finished() > checkpointed_sessions &&
          server.drained() && server.outstanding() == 0) {
        checkpointed_sessions = server.sessions_finished();
        engine->checkpoint("session end");
      }
      // Sleep until a synopsis that closes the next window is queued, so
      // its verdicts come out as soon as they are due, but drain at least
      // every kDrainGap so the backlog stays short.
      channel.wait_for(engine->next_close_at(), kDrainGap);
      continue;
    }
    engine->ingest(batch);
    server.ack(batch.size());
  }
  server.stop();          // publishes any still-pending batches
  batch.clear();
  channel.drain(batch);   // ...which this final drain collects
  engine->ingest(batch);
  server.ack(batch.size());
  engine->finish();

  // A signal-initiated shutdown writes a final checkpoint: every verdict
  // (including the finish() tail) is captured, so a restart resumes with
  // the complete report instead of losing everything since the last window
  // barrier.
  if (checkpointing && g_stop_requested != 0) engine->checkpoint("shutdown");

  if (!args.trace_out.empty()) {
    if (tracer.write_chrome_trace(args.trace_out)) {
      std::fprintf(stderr,
                   "serve: wrote %zu span(s) as Chrome trace JSON to %s\n",
                   tracer.completed().size(), args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "serve: cannot write --trace-out=%s\n",
                   args.trace_out.c_str());
    }
  }
  admin.stop();

  const auto stats = server.stats();
  std::fprintf(stderr,
               "serve: %llu connections, %llu sessions, %llu frames, %llu "
               "synopses, %llu bytes; rejects: %llu crc, %llu magic, %llu "
               "frame, %llu payload, %llu truncated; %llu shed\n",
               static_cast<unsigned long long>(stats.connections),
               static_cast<unsigned long long>(stats.sessions),
               static_cast<unsigned long long>(stats.frames),
               static_cast<unsigned long long>(stats.synopses),
               static_cast<unsigned long long>(stats.bytes),
               static_cast<unsigned long long>(stats.crc_rejects),
               static_cast<unsigned long long>(stats.magic_rejects),
               static_cast<unsigned long long>(stats.frame_rejects),
               static_cast<unsigned long long>(stats.payload_rejects),
               static_cast<unsigned long long>(stats.truncated),
               static_cast<unsigned long long>(stats.shed_synopses));
  return print_verdicts(*engine);
}

// Streams a recorded trace into a running `serve` through the reconnecting
// client shim, at recorded (--pace=recorded, optionally --speed=N times
// faster) or maximum (--pace=fast) pacing. Recorded pacing sends each
// synopsis at its start time on one schedule from the first, so the tens of
// microseconds that each short sleep overshoots are made up by the synopses
// after it instead of adding up.
int cmd_replay(const Args& args) {
  const auto colon = args.connect.rfind(':');
  if (args.connect.empty() || colon == std::string::npos) {
    std::fprintf(stderr, "replay: --connect=HOST:PORT required\n");
    return 2;
  }
  const long long port = parse_int(args.connect.substr(colon + 1), "connect");
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "replay: bad port in --connect=%s\n",
                 args.connect.c_str());
    return 2;
  }
  core::TraceReader reader(args.trace);
  if (!reader.ok()) {
    report_unreadable_trace("replay", args.trace, reader);
    return 1;
  }
  if (args.pace != "fast" && args.pace != "recorded") {
    std::fprintf(stderr, "replay: unknown --pace=%s (fast|recorded)\n",
                 args.pace.c_str());
    return 2;
  }

  net::SynopsisClient::Options options;
  options.host = args.connect.substr(0, colon);
  options.port = static_cast<std::uint16_t>(port);
  options.batch_synopses =
      static_cast<std::size_t>(args.batch);
  options.spill_trace_path = args.spool_trace;
  options.seed = args.seed;
  net::SynopsisClient client(options);

  const auto max_attempts = static_cast<std::size_t>(
      args.retries);
  bool connected = false;
  for (std::size_t i = 0; i < max_attempts && !(connected = client.connect());
       ++i) {
  }
  if (!connected) {
    std::fprintf(stderr, "replay: cannot connect to %s after %zu attempts\n",
                 args.connect.c_str(), max_attempts);
    return 1;
  }

  const long long speed = args.speed;
  core::Synopsis s;
  UsTime first = -1;  // start time of the first synopsis streamed
  std::chrono::steady_clock::time_point first_sent;
  long long to_skip = args.skip;
  std::size_t streamed = 0;
  while (reader.next(s)) {
    // --skip/--limit carve a synopsis range out of the trace, for staged
    // runs (a crash-restart test streams [0, N) then resumes at N). The
    // pacing schedule starts at the range's first synopsis.
    if (to_skip > 0) {
      --to_skip;
      continue;
    }
    if (args.limit >= 0 && streamed >= static_cast<std::size_t>(args.limit))
      break;
    if (args.pace == "recorded") {
      if (first < 0) {
        first = s.start;
        first_sent = std::chrono::steady_clock::now();
      } else if (s.start > first) {
        std::this_thread::sleep_until(
            first_sent + std::chrono::microseconds((s.start - first) / speed));
      }
    }
    client.enqueue(s);
    ++streamed;
    if (client.spool_size() >= options.batch_synopses)
      client.flush();  // failure keeps everything spooled; retried below
  }
  warn_trace_damage("replay", reader.stats());

  bool delivered = false;
  for (std::size_t i = 0; i < max_attempts && !(delivered = client.close());
       ++i) {
  }
  const auto& stats = client.stats();
  std::printf("replay: streamed %llu of %zu synopses in %llu frames "
              "(%llu reconnects, %llu spilled, %llu dropped)\n",
              static_cast<unsigned long long>(stats.sent_synopses), streamed,
              static_cast<unsigned long long>(stats.sent_frames),
              static_cast<unsigned long long>(stats.reconnects),
              static_cast<unsigned long long>(stats.spilled),
              static_cast<unsigned long long>(stats.dropped));
  if (!delivered) {
    std::fprintf(stderr,
                 "replay: %zu synopses undelivered after %zu attempts%s\n",
                 client.spool_size(), max_attempts,
                 args.spool_trace.empty() ? ""
                                          : " (spilling to --spool-trace)");
    return 1;
  }
  return 0;
}

int cmd_info(const Args& args) {
  core::TraceReader reader(args.trace);
  if (!reader.ok()) {
    report_unreadable_trace("info", args.trace, reader);
    return 1;
  }
  UsTime first = 0, last = 0;
  std::uint64_t bytes = 0;
  std::map<core::StageId, std::uint64_t> per_stage;
  core::Synopsis s;
  std::size_t count = 0;
  while (reader.next(s)) {
    if (s.start < first || first == 0) first = s.start;
    last = std::max(last, s.start + s.duration);
    bytes += core::encoded_size(s);
    per_stage[s.stage]++;
    ++count;
  }
  const auto& stats = reader.stats();
  std::printf("format v%d: %zu synopses, %.2f MB encoded, spanning %.1f "
              "minutes, %zu stages\n",
              stats.version, count, static_cast<double>(bytes) / 1e6,
              to_min(last - first), per_stage.size());
  std::printf("integrity: %llu blocks, %llu corrupt, %llu bytes "
              "discarded%s\n",
              static_cast<unsigned long long>(stats.blocks_total),
              static_cast<unsigned long long>(stats.blocks_corrupt),
              static_cast<unsigned long long>(stats.bytes_discarded),
              stats.truncated_tail ? ", torn tail" : "");
  TextTable table({"reader metric", "value"});
  table.add_row({"records decoded",
                 TextTable::num(static_cast<std::int64_t>(count))});
  table.add_row({"blocks read",
                 TextTable::num(static_cast<std::int64_t>(stats.blocks_total))});
  table.add_row({"blocks corrupt (CRC)",
                 TextTable::num(static_cast<std::int64_t>(stats.blocks_corrupt))});
  table.add_row({"bytes discarded",
                 TextTable::num(static_cast<std::int64_t>(stats.bytes_discarded))});
  table.add_row({"torn tail recovered", stats.truncated_tail ? "yes" : "no"});
  std::printf("%s", table.to_string().c_str());
  return stats.blocks_corrupt > 0 || stats.bytes_discarded > 0 ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  saad::obs::install_crash_handler();
  // Register every pipeline family up front so --metrics-out snapshots are
  // complete (zero-valued families included) regardless of the command.
  saad::core::register_pipeline_metrics();
  saad::net::register_net_metrics();
  saad::obs::register_span_metrics();
  int rc;
  if (args.command == "record") {
    rc = cmd_record(args);
  } else if (args.command == "train") {
    rc = cmd_train(args);
  } else if (args.command == "detect") {
    rc = cmd_detect(args);
  } else if (args.command == "serve") {
    rc = cmd_serve(args);
  } else if (args.command == "replay") {
    rc = cmd_replay(args);
  } else if (args.command == "info") {
    rc = cmd_info(args);
  } else {
    std::fprintf(
        stderr,
        "usage: saad_offline <record|train|detect|serve|replay|info> "
        "[--trace=] [--model=] [--registry=] [--html=] "
        "[--system=cassandra|hbase] "
        "[--fault=error-wal|delay-wal|error-flush|delay-flush] "
        "[--minutes=N] [--window-sec=N] [--seed=N] "
        "[--metrics-out=<file>] [--stats] "
        "[--listen=PORT] [--port-file=<file>] [--once] "
        "[--checkpoint-dir=<dir>] [--checkpoint-every=N] "
        "[--admin-port=PORT] [--admin-port-file=<file>] "
        "[--trace-out=<file>] [--span-every=N] "
        "[--connect=HOST:PORT] [--pace=fast|recorded] [--speed=N] "
        "[--batch=N] [--retries=N] [--spool-trace=<file>] "
        "[--skip=N] [--limit=N]\n");
    return 2;
  }
  // Telemetry snapshot last, after the command ran to completion (success or
  // failure — a failed run's metrics are the interesting ones).
  if (!args.metrics_out.empty()) {
    if (saad::obs::write_prometheus_file(saad::obs::MetricsRegistry::global(),
                                         args.metrics_out)) {
      std::fprintf(stderr, "wrote metrics snapshot to %s\n",
                   args.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write --metrics-out=%s\n",
                   args.metrics_out.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}
