#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
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

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

void detail::register_server_metrics() { ServerMetrics::get(); }

struct SynopsisServer::Connection {
  int fd = -1;
  FrameDecoder decoder;  // expects the stream magic
  bool got_hello = false;
  std::uint64_t synopses = 0;  // decoded on this connection
};

struct SynopsisServer::Impl {
  // A decoded batch waiting to be published, with the span token the tracer
  // issued at decode (0 = batch not sampled).
  struct PendingBatch {
    core::SynopsisBatch synopses;
    std::uint64_t span_token = 0;
  };
  // Published or shed batches kept for the next decode, so a steady stream
  // of frames reuses their storage; beyond this many they are freed.
  static constexpr std::size_t kSpareBatches = 4;

  int listen_fd = -1;
  int wake_rd = -1, wake_wr = -1;  // self-pipe: stop() wakes poll()
  std::vector<std::unique_ptr<Connection>> connections;
  std::deque<PendingBatch> pending;  // decoded, unpublished
  std::vector<core::SynopsisBatch> spare;  // cleared, at most kSpareBatches
  std::vector<std::uint8_t> recv_buf;
  Frame frame;  // every connection pops its frames into this one
  std::optional<core::SynopsisChannel::Producer> producer;

  // stats() is cross-thread; the I/O thread updates these relaxed.
  std::atomic<std::uint64_t> connections_total{0}, connections_rejected{0},
      frames{0}, batches{0}, synopses{0}, bytes{0}, heartbeats{0}, goodbyes{0},
      goodbye_mismatches{0}, crc_rejects{0}, magic_rejects{0}, frame_rejects{0},
      payload_rejects{0}, truncated{0}, shed_batches{0}, shed_synopses{0};
  std::atomic<std::size_t> pending_batches{0};
};

SynopsisServer::SynopsisServer(core::SynopsisChannel* channel, Options options)
    : channel_(channel),
      options_(std::move(options)),
      impl_(std::make_unique<Impl>()) {
  ServerMetrics::get();  // register families even if start() never runs
  impl_->recv_buf.resize(64 * 1024);
}

SynopsisServer::~SynopsisServer() { stop(); }

bool SynopsisServer::start() {
  if (running()) return true;
  Impl& im = *impl_;

  im.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (im.listen_fd < 0) return false;
  const int one = 1;
  ::setsockopt(im.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(im.listen_fd, 64) != 0 || !set_nonblocking(im.listen_fd)) {
    close_quietly(im.listen_fd);
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close_quietly(im.listen_fd);
    return false;
  }
  port_ = ntohs(addr.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    close_quietly(im.listen_fd);
    return false;
  }
  im.wake_rd = pipe_fds[0];
  im.wake_wr = pipe_fds[1];
  set_nonblocking(im.wake_rd);

  im.producer.emplace(channel_->producer());
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { io_loop(); });
  return true;
}

void SynopsisServer::stop() {
  if (!running()) return;
  stopping_.store(true, std::memory_order_release);
  const char byte = 0;
  [[maybe_unused]] const auto n = ::write(impl_->wake_wr, &byte, 1);
  if (thread_.joinable()) thread_.join();
  // The fds are closed here, not in io_loop(): a concurrent stop() caller
  // reads wake_wr, so only the thread that joined may invalidate them.
  close_quietly(impl_->listen_fd);
  close_quietly(impl_->wake_rd);
  close_quietly(impl_->wake_wr);
  running_.store(false, std::memory_order_release);
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
  s.connections = im.connections_total.load(std::memory_order_relaxed);
  s.connections_rejected =
      im.connections_rejected.load(std::memory_order_relaxed);
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

void SynopsisServer::io_loop() {
  Impl& im = *impl_;
  auto& metrics = ServerMetrics::get();

  auto bump = [](std::atomic<std::uint64_t>& stat, obs::Counter& counter,
                 std::uint64_t n = 1) {
    stat.fetch_add(n, std::memory_order_relaxed);
    counter.inc(n);
  };

  // Closes a connection and attributes the end to the right counters.
  auto close_connection = [&](std::size_t index, bool count_truncation) {
    Connection& conn = *im.connections[index];
    if (count_truncation && conn.decoder.mid_frame())
      bump(im.truncated, metrics.truncated);
    if (conn.got_hello) {
      sessions_.fetch_add(1, std::memory_order_relaxed);
      metrics.sessions.inc();
    }
    close_quietly(conn.fd);
    im.connections.erase(im.connections.begin() +
                         static_cast<std::ptrdiff_t>(index));
    active_.store(im.connections.size(), std::memory_order_relaxed);
    metrics.active.set(static_cast<std::int64_t>(im.connections.size()));
  };

  // Attributes a wire decode error to its reject family.
  auto count_reject = [&](WireError error) {
    switch (error) {
      case WireError::kBadCrc:
        bump(im.crc_rejects, metrics.crc_rejects);
        break;
      case WireError::kBadMagic:
        bump(im.magic_rejects, metrics.magic_rejects);
        break;
      case WireError::kBadType:
      case WireError::kOversized:
        bump(im.frame_rejects, metrics.frame_rejects);
        break;
      default:
        bump(im.payload_rejects, metrics.payload_rejects);
        break;
    }
  };

  // Retires the oldest pending batch, keeping its storage for a decode.
  auto pop_pending = [&] {
    core::SynopsisBatch& done = im.pending.front().synopses;
    if (im.spare.size() < Impl::kSpareBatches) {
      done.clear();
      im.spare.push_back(std::move(done));
    }
    im.pending.pop_front();
  };

  // Publishes pending batches while under the outstanding watermark. The
  // Producer is bound to one channel shard, so publish order is FIFO.
  auto publish_ready = [&] {
    while (!im.pending.empty()) {
      const std::uint64_t batch_size = im.pending.front().synopses.size();
      if (outstanding() + batch_size > options_.max_outstanding_synopses &&
          batch_size <= options_.max_outstanding_synopses)
        break;  // wait for acks (oversized-vs-watermark batches pass anyway)
      // Stamp the publish hop before the first push: once a synopsis is in
      // the channel the consumer may dequeue it, and the span's publish
      // timestamp must precede its dequeue timestamp.
      obs::SpanTracer::global().on_published(
          im.pending.front().span_token,
          published_.load(std::memory_order_relaxed) + batch_size);
      im.producer->push(im.pending.front().synopses);
      pop_pending();
      published_.fetch_add(batch_size, std::memory_order_relaxed);
      metrics.published.inc(batch_size);
    }
    im.pending_batches.store(im.pending.size(), std::memory_order_release);
    metrics.pending.set(static_cast<std::int64_t>(im.pending.size()));
  };

  // Queues a decoded batch, shedding the oldest when full.
  auto enqueue_batch = [&](core::SynopsisBatch&& batch,
                           std::uint64_t span_token) {
    if (batch.empty()) return;
    while (im.pending.size() >= options_.max_pending_batches) {
      bump(im.shed_batches, metrics.shed_batches);
      bump(im.shed_synopses, metrics.shed_synopses,
           im.pending.front().synopses.size());
      obs::SpanTracer::global().on_shed(im.pending.front().span_token);
      pop_pending();
    }
    im.pending.push_back({std::move(batch), span_token});
    im.pending_batches.store(im.pending.size(), std::memory_order_release);
  };

  // Handles every completed frame on a connection. Returns false when the
  // connection must be dropped (protocol violation or goodbye).
  auto handle_frames = [&](Connection& conn) -> bool {
    Frame& frame = im.frame;
    while (conn.decoder.next(frame)) {
      if (!conn.got_hello && frame.type != FrameType::kHello) {
        count_reject(WireError::kNotHello);
        return false;
      }
      bump(im.frames, metrics.frames);
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
          if (!im.spare.empty()) {
            batch.swap(im.spare.back());
            im.spare.pop_back();
          }
          if (!decode_batch(frame.payload, batch)) {
            count_reject(WireError::kBadPayload);
            return false;
          }
          bump(im.batches, metrics.batches);
          bump(im.synopses, metrics.synopses, batch.size());
          conn.synopses += batch.size();
          const std::uint64_t span_token =
              obs::SpanTracer::global().on_batch_decoded(batch.size());
          enqueue_batch(std::move(batch), span_token);
          break;
        }
        case FrameType::kHeartbeat:
          bump(im.heartbeats, metrics.heartbeats);
          break;
        case FrameType::kGoodbye: {
          std::uint64_t claimed = 0;
          if (!decode_goodbye(frame.payload, claimed)) {
            count_reject(WireError::kBadPayload);
            return false;
          }
          bump(im.goodbyes, metrics.goodbyes);
          if (claimed != conn.synopses)
            bump(im.goodbye_mismatches, metrics.goodbye_mismatches);
          return false;  // clean end of session
        }
      }
    }
    return true;
  };

  std::vector<pollfd> fds;
  while (!stopping_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({im.wake_rd, POLLIN, 0});
    fds.push_back({im.listen_fd, POLLIN, 0});
    for (const auto& conn : im.connections)
      fds.push_back({conn->fd, POLLIN, 0});

    const int rc = ::poll(fds.data(), fds.size(), options_.poll_interval_ms);
    if (rc < 0 && errno != EINTR) break;

    // Accept new connections (drain the backlog).
    if (fds[1].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(im.listen_fd, nullptr, nullptr);
        if (fd < 0) break;
        if (im.connections.size() >= options_.max_connections) {
          bump(im.connections_rejected, metrics.connections_rejected);
          ::close(fd);
          continue;
        }
        set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        im.connections.push_back(std::move(conn));
        bump(im.connections_total, metrics.connections);
        active_.store(im.connections.size(), std::memory_order_relaxed);
        metrics.active.set(static_cast<std::int64_t>(im.connections.size()));
      }
    }

    // Service readable connections. fds[i + 2] belongs to connections[i] as
    // polled; iterate backwards so close_connection()'s erase cannot shift
    // a not-yet-visited entry.
    const std::size_t polled = fds.size() - 2;
    for (std::size_t i = polled; i-- > 0;) {
      if (i >= im.connections.size()) continue;  // closed by accept path? no — safety
      const short revents = fds[i + 2].revents;
      if (revents == 0) continue;
      Connection& conn = *im.connections[i];
      bool drop = false, truncation = true;
      for (;;) {
        const ssize_t n =
            ::recv(conn.fd, im.recv_buf.data(), im.recv_buf.size(), 0);
        if (n > 0) {
          bump(im.bytes, metrics.bytes, static_cast<std::uint64_t>(n));
          if (!conn.decoder.feed(
                  std::span(im.recv_buf.data(), static_cast<std::size_t>(n)))) {
            count_reject(conn.decoder.error());
            drop = true;
            truncation = false;  // decode damage, not a torn disconnect
            break;
          }
          if (!handle_frames(conn)) {
            drop = true;
            truncation = false;
            break;
          }
          // Publish as batches decode: a sender that keeps the socket full
          // would otherwise overflow the pending queue before this loop
          // ever reaches EAGAIN, shedding with the consumer idle.
          publish_ready();
          continue;
        }
        if (n == 0) {  // peer closed
          drop = true;
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        drop = true;  // hard socket error
        break;
      }
      if (drop) close_connection(i, truncation);
    }

    publish_ready();
  }

  // Shutdown: close everything, then publish what was already decoded so no
  // accepted data is stranded invisibly between the wire and the channel.
  while (!im.connections.empty())
    close_connection(im.connections.size() - 1, true);
  options_.max_outstanding_synopses = UINT64_MAX;
  publish_ready();
  im.producer->flush();
  im.producer.reset();
  // listen/wake fds stay open here; stop() closes them after the join so a
  // concurrent stop() can still write its wake byte into a live pipe.
}

}  // namespace saad::net
