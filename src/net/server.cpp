#include "net/server.h"

#include <deque>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace saad::net {

namespace {

// Process-wide server-side metrics (all SynopsisServer instances accumulate
// into the same families — the Prometheus model, matching channel.cpp).
struct ServerMetrics {
  obs::Counter& connections;
  obs::Counter& connections_rejected;
  obs::Counter& sessions;
  obs::Counter& frames;
  obs::Counter& batches;
  obs::Counter& synopses;
  obs::Counter& published;
  obs::Counter& bytes;
  obs::Counter& heartbeats;
  obs::Counter& goodbyes;
  obs::Counter& goodbye_mismatches;
  obs::Counter& crc_rejects;
  obs::Counter& magic_rejects;
  obs::Counter& frame_rejects;
  obs::Counter& payload_rejects;
  obs::Counter& truncated;
  obs::Counter& shed_batches;
  obs::Counter& shed_synopses;
  obs::Gauge& active;
  obs::Gauge& pending;

  ServerMetrics()
      : connections(obs::MetricsRegistry::global().counter(
            "saad_net_connections_total", "Client connections accepted.")),
        connections_rejected(obs::MetricsRegistry::global().counter(
            "saad_net_connections_rejected_total",
            "Connections refused because max_connections was reached.")),
        sessions(obs::MetricsRegistry::global().counter(
            "saad_net_sessions_total",
            "Hello-completed connections that have ended (goodbye or "
            "disconnect).")),
        frames(obs::MetricsRegistry::global().counter(
            "saad_net_frames_total",
            "Valid SAADNET1 frames decoded, all types.")),
        batches(obs::MetricsRegistry::global().counter(
            "saad_net_batches_total", "Batch frames decoded.")),
        synopses(obs::MetricsRegistry::global().counter(
            "saad_net_synopses_total",
            "Synopses decoded from batch frames.")),
        published(obs::MetricsRegistry::global().counter(
            "saad_net_published_total",
            "Synopses published into the analyzer channel.")),
        bytes(obs::MetricsRegistry::global().counter(
            "saad_net_bytes_total", "Raw bytes received from clients.")),
        heartbeats(obs::MetricsRegistry::global().counter(
            "saad_net_heartbeats_total", "Heartbeat frames received.")),
        goodbyes(obs::MetricsRegistry::global().counter(
            "saad_net_goodbyes_total", "Goodbye frames received.")),
        goodbye_mismatches(obs::MetricsRegistry::global().counter(
            "saad_net_goodbye_mismatches_total",
            "Goodbye frames whose synopsis count disagreed with what the "
            "connection delivered.")),
        crc_rejects(obs::MetricsRegistry::global().counter(
            "saad_net_crc_rejects_total",
            "Connections dropped for a frame CRC32C mismatch.")),
        magic_rejects(obs::MetricsRegistry::global().counter(
            "saad_net_magic_rejects_total",
            "Connections dropped for a bad SAADNET1 stream prologue.")),
        frame_rejects(obs::MetricsRegistry::global().counter(
            "saad_net_frame_rejects_total",
            "Connections dropped for framing damage (bad type byte or "
            "oversized length prefix).")),
        payload_rejects(obs::MetricsRegistry::global().counter(
            "saad_net_payload_rejects_total",
            "Connections dropped for an undecodable payload, a non-hello "
            "first frame, or an unsupported protocol version.")),
        truncated(obs::MetricsRegistry::global().counter(
            "saad_net_truncated_total",
            "Connections that disconnected mid-frame.")),
        shed_batches(obs::MetricsRegistry::global().counter(
            "saad_net_shed_batches_total",
            "Oldest pending batches shed under overload.")),
        shed_synopses(obs::MetricsRegistry::global().counter(
            "saad_net_shed_synopses_total",
            "Synopses lost to overload sheds.")),
        active(obs::MetricsRegistry::global().gauge(
            "saad_net_connections_active", "Currently open connections.")),
        pending(obs::MetricsRegistry::global().gauge(
            "saad_net_pending_batches",
            "Decoded batches waiting to be published.")) {}

  static ServerMetrics& get() {
    static ServerMetrics* metrics = new ServerMetrics();
    return *metrics;
  }
};

void bump(std::atomic<std::uint64_t>& stat, obs::Counter& counter,
          std::uint64_t n = 1) {
  stat.fetch_add(n, std::memory_order_relaxed);
  counter.inc(n);
}

// How often publish is retried while the ack watermark holds a batch back.
constexpr int kPublishRetryMs = 20;

struct Connection final : TcpListener::Connection {
  FrameDecoder decoder;  // expects the stream magic
  bool got_hello = false;
  std::uint64_t synopses = 0;  // decoded on this connection
};

}  // namespace

void detail::register_server_metrics() { ServerMetrics::get(); }

// The listener's handler: decodes each connection's frames, queues the
// decoded batches, and publishes them through the one Producer.
struct SynopsisServer::Impl final : TcpListener::Handler {
  // A decoded batch waiting to be published, with the span token the tracer
  // issued at decode (0 = batch not sampled).
  struct PendingBatch {
    core::SynopsisBatch synopses;
    std::uint64_t span_token = 0;
  };
  // Published or shed batches kept for the next decode, so a steady stream
  // of frames reuses their storage; beyond this many they are freed.
  static constexpr std::size_t kSpareBatches = 4;

  explicit Impl(SynopsisServer& owner)
      : server(owner), metrics(ServerMetrics::get()) {}

  std::unique_ptr<TcpListener::Connection> open() override {
    return std::make_unique<Connection>();
  }

  bool received(TcpListener::Connection& base,
                std::span<const std::uint8_t> chunk) override {
    auto& conn = static_cast<Connection&>(base);
    bump(bytes, metrics.bytes, chunk.size());
    if (!conn.decoder.feed(chunk)) {
      count_reject(conn.decoder.error());
      return false;
    }
    if (!handle_frames(conn)) return false;
    // Publish as batches decode: a sender that keeps the socket full would
    // otherwise overflow the pending queue before the listener's recv loop
    // ever reaches EAGAIN, shedding with the consumer idle.
    publish_ready();
    return true;
  }

  void closed(TcpListener::Connection& base, TcpListener::Close why) override {
    const auto& conn = static_cast<const Connection&>(base);
    // A close for decode damage or a goodbye is not a torn disconnect.
    if (why != TcpListener::Close::kHandled && conn.decoder.mid_frame())
      bump(truncated, metrics.truncated);
    if (conn.got_hello) {
      server.sessions_.fetch_add(1, std::memory_order_relaxed);
      metrics.sessions.inc();
    }
  }

  int round() override {
    publish_ready();
    return pending.empty() ? -1 : kPublishRetryMs;
  }

  // Attributes a wire decode error to its reject family.
  void count_reject(WireError error) {
    switch (error) {
      case WireError::kBadCrc:
        bump(crc_rejects, metrics.crc_rejects);
        break;
      case WireError::kBadMagic:
        bump(magic_rejects, metrics.magic_rejects);
        break;
      case WireError::kBadType:
      case WireError::kOversized:
        bump(frame_rejects, metrics.frame_rejects);
        break;
      default:
        bump(payload_rejects, metrics.payload_rejects);
        break;
    }
  }

  // Retires the oldest pending batch, keeping its storage for a decode.
  void pop_pending() {
    core::SynopsisBatch& done = pending.front().synopses;
    if (spare.size() < kSpareBatches) {
      done.clear();
      spare.push_back(std::move(done));
    }
    pending.pop_front();
  }

  // Publishes pending batches while under the outstanding watermark. The
  // Producer is bound to one channel shard, so publish order is FIFO.
  void publish_ready(bool lift_watermark = false) {
    const std::uint64_t watermark = server.options_.max_outstanding_synopses;
    while (!pending.empty()) {
      const std::uint64_t batch_size = pending.front().synopses.size();
      if (!lift_watermark && server.outstanding() + batch_size > watermark &&
          batch_size <= watermark)
        break;  // wait for acks (oversized-vs-watermark batches pass anyway)
      // Stamp the publish hop before the first push: once a synopsis is in
      // the channel the consumer may dequeue it, and the span's publish
      // timestamp must precede its dequeue timestamp.
      obs::SpanTracer::global().on_published(
          pending.front().span_token,
          server.published_.load(std::memory_order_relaxed) + batch_size);
      producer->push(pending.front().synopses);
      pop_pending();
      server.published_.fetch_add(batch_size, std::memory_order_relaxed);
      metrics.published.inc(batch_size);
    }
    pending_batches.store(pending.size(), std::memory_order_release);
    metrics.pending.set(static_cast<std::int64_t>(pending.size()));
  }

  // Queues a decoded batch, shedding the oldest when full.
  void enqueue_batch(core::SynopsisBatch&& batch, std::uint64_t span_token) {
    if (batch.empty()) return;
    while (pending.size() >= server.options_.max_pending_batches) {
      bump(shed_batches, metrics.shed_batches);
      bump(shed_synopses, metrics.shed_synopses,
           pending.front().synopses.size());
      obs::SpanTracer::global().on_shed(pending.front().span_token);
      pop_pending();
    }
    pending.push_back({std::move(batch), span_token});
    pending_batches.store(pending.size(), std::memory_order_release);
  }

  // Handles every completed frame on a connection. Returns false when the
  // connection must be dropped (protocol violation or goodbye).
  bool handle_frames(Connection& conn) {
    while (conn.decoder.next(frame)) {
      if (!conn.got_hello && frame.type != FrameType::kHello) {
        count_reject(WireError::kNotHello);
        return false;
      }
      bump(frames, metrics.frames);
      switch (frame.type) {
        case FrameType::kHello: {
          Hello hello;
          if (!decode_hello(frame.payload, hello)) {
            count_reject(WireError::kBadPayload);
            return false;
          }
          if (hello.version != kProtocolVersion) {
            count_reject(WireError::kBadVersion);
            return false;
          }
          conn.got_hello = true;
          break;
        }
        case FrameType::kBatch: {
          core::SynopsisBatch batch;
          if (!spare.empty()) {
            batch.swap(spare.back());
            spare.pop_back();
          }
          if (!decode_batch(frame.payload, batch)) {
            count_reject(WireError::kBadPayload);
            return false;
          }
          bump(batches, metrics.batches);
          bump(synopses, metrics.synopses, batch.size());
          conn.synopses += batch.size();
          const std::uint64_t span_token =
              obs::SpanTracer::global().on_batch_decoded(batch.size());
          enqueue_batch(std::move(batch), span_token);
          break;
        }
        case FrameType::kHeartbeat:
          bump(heartbeats, metrics.heartbeats);
          break;
        case FrameType::kGoodbye: {
          std::uint64_t claimed = 0;
          if (!decode_goodbye(frame.payload, claimed)) {
            count_reject(WireError::kBadPayload);
            return false;
          }
          bump(goodbyes, metrics.goodbyes);
          if (claimed != conn.synopses)
            bump(goodbye_mismatches, metrics.goodbye_mismatches);
          return false;  // clean end of session
        }
      }
    }
    return true;
  }

  SynopsisServer& server;
  ServerMetrics& metrics;
  std::deque<PendingBatch> pending;  // decoded, unpublished
  std::vector<core::SynopsisBatch> spare;  // cleared, at most kSpareBatches
  Frame frame;  // every connection pops its frames into this one
  std::optional<core::SynopsisChannel::Producer> producer;

  // stats() is cross-thread; the I/O thread updates these relaxed.
  std::atomic<std::uint64_t> frames{0}, batches{0}, synopses{0}, bytes{0},
      heartbeats{0}, goodbyes{0}, goodbye_mismatches{0}, crc_rejects{0},
      magic_rejects{0}, frame_rejects{0}, payload_rejects{0}, truncated{0},
      shed_batches{0}, shed_synopses{0};
  std::atomic<std::size_t> pending_batches{0};
};

SynopsisServer::SynopsisServer(core::SynopsisChannel* channel, Options options)
    : channel_(channel),
      options_(std::move(options)),
      impl_(std::make_unique<Impl>(*this)),
      listener_(*impl_, {impl_->metrics.connections,
                         impl_->metrics.connections_rejected,
                         impl_->metrics.active}) {}

SynopsisServer::~SynopsisServer() { stop(); }

bool SynopsisServer::start() {
  if (running()) return true;
  impl_->producer.emplace(channel_->producer());
  if (listener_.start(options_.bind_address, options_.port,
                      options_.max_connections))
    return true;
  impl_->producer.reset();
  return false;
}

void SynopsisServer::stop() {
  if (!running()) return;
  listener_.stop();  // closes every connection, counting truncations
  // Then publish what was already decoded, past the watermark, so no
  // accepted data is stranded invisibly between the wire and the channel.
  impl_->publish_ready(/*lift_watermark=*/true);
  impl_->producer->flush();
  impl_->producer.reset();
}

void SynopsisServer::ack(std::uint64_t n) {
  acked_.fetch_add(n, std::memory_order_relaxed);
}

bool SynopsisServer::drained() const {
  return impl_->pending_batches.load(std::memory_order_acquire) == 0;
}

SynopsisServer::Stats SynopsisServer::stats() const {
  const Impl& im = *impl_;
  Stats s;
  s.connections = listener_.accepted();
  s.connections_rejected = listener_.rejected();
  s.sessions = sessions_.load(std::memory_order_relaxed);
  s.frames = im.frames.load(std::memory_order_relaxed);
  s.batches = im.batches.load(std::memory_order_relaxed);
  s.synopses = im.synopses.load(std::memory_order_relaxed);
  s.published = published_.load(std::memory_order_relaxed);
  s.bytes = im.bytes.load(std::memory_order_relaxed);
  s.heartbeats = im.heartbeats.load(std::memory_order_relaxed);
  s.goodbyes = im.goodbyes.load(std::memory_order_relaxed);
  s.goodbye_mismatches = im.goodbye_mismatches.load(std::memory_order_relaxed);
  s.crc_rejects = im.crc_rejects.load(std::memory_order_relaxed);
  s.magic_rejects = im.magic_rejects.load(std::memory_order_relaxed);
  s.frame_rejects = im.frame_rejects.load(std::memory_order_relaxed);
  s.payload_rejects = im.payload_rejects.load(std::memory_order_relaxed);
  s.truncated = im.truncated.load(std::memory_order_relaxed);
  s.shed_batches = im.shed_batches.load(std::memory_order_relaxed);
  s.shed_synopses = im.shed_synopses.load(std::memory_order_relaxed);
  return s;
}

}  // namespace saad::net
