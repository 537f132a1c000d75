// SynopsisServer — the analyzer-side TCP acceptor for live synopsis
// ingestion. Remote trackers (SynopsisClient, or `saad_offline replay`)
// connect, speak the SAADNET1 framed protocol (net/wire.h), and their batch
// frames are decoded and published into the existing sharded
// core::SynopsisChannel, from which the analyzer loop drains exactly as it
// would from in-process trackers.
//
// Concurrency shape: a net::TcpListener (net/listener.h) owns the socket,
// every connection and the I/O thread; this server adds each connection's
// frame decoder and the one channel Producer. The analyzer (consumer)
// thread only drains the channel and calls ack(). No per-connection threads
// — the paper's deployment expects many lightweight senders per analyzer.
//
// Batches: each batch frame decodes into one core::SynopsisBatch, which is
// queued and published whole — one append of its flat records and points
// into the channel shard under one lock, with no per-synopsis copy — and
// its storage is then reused for a later frame.
//
// Ordering: the I/O thread publishes decoded batches FIFO through a single
// channel Producer (one shard), so a single client's synopses reach the
// analyzer in exactly the order it sent them — the property the end-to-end
// determinism test pins. Interleaving *between* clients is unspecified, as
// it already is between in-process producer threads.
//
// Overload policy (bounded everywhere, never block the acceptor):
//   * per-connection reassembly buffers are bounded by one frame
//     (kMaxFramePayload) — a corrupt length prefix cannot balloon them;
//   * decoded-but-unpublished batches wait in a bounded pending queue;
//     when it is full the *oldest* batch is shed and counted
//     (saad_net_shed_batches_total / saad_net_shed_synopses_total) —
//     freshest data wins, and the I/O thread never blocks on a slow
//     analyzer;
//   * batches are published only while published-minus-acked stays under
//     max_outstanding_synopses (a held-back batch is retried every 20 ms),
//     so a stalled consumer shows up as sheds here instead of unbounded
//     channel growth.
//
// Damage policy: any wire decode error poisons that connection — it is
// closed and the matching saad_net_* reject counter is bumped; other
// connections and the listener are unaffected (the corruption suite pins
// "never crash, always count").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/channel.h"
#include "net/listener.h"
#include "net/wire.h"

namespace saad::net {

class SynopsisServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; see port() for the real one
    std::size_t max_connections = 64;
    /// Decoded batches waiting to be published; the oldest is shed when a
    /// new batch arrives while the queue is full.
    std::size_t max_pending_batches = 1024;
    /// High watermark on synopses published into the channel but not yet
    /// ack()ed by the consumer.
    std::uint64_t max_outstanding_synopses = 1 << 20;
  };

  /// Monotonic since start(); every field also feeds a saad_net_* family.
  struct Stats {
    std::uint64_t connections = 0;       // accepted
    std::uint64_t connections_rejected = 0;  // over max_connections
    std::uint64_t sessions = 0;          // hello'd connections that ended
    std::uint64_t frames = 0;            // valid frames, all types
    std::uint64_t batches = 0;
    std::uint64_t synopses = 0;          // decoded from batch frames
    std::uint64_t published = 0;         // handed to the channel
    std::uint64_t bytes = 0;             // raw bytes received
    std::uint64_t heartbeats = 0;
    std::uint64_t goodbyes = 0;
    std::uint64_t goodbye_mismatches = 0;  // goodbye count != received count
    std::uint64_t crc_rejects = 0;       // WireError::kBadCrc
    std::uint64_t magic_rejects = 0;     // WireError::kBadMagic
    std::uint64_t frame_rejects = 0;     // kBadType / kOversized
    std::uint64_t payload_rejects = 0;   // kBadPayload / kNotHello / kBadVersion
    std::uint64_t truncated = 0;         // disconnect mid-frame
    std::uint64_t shed_batches = 0;
    std::uint64_t shed_synopses = 0;
  };

  explicit SynopsisServer(core::SynopsisChannel* channel)
      : SynopsisServer(channel, Options()) {}
  SynopsisServer(core::SynopsisChannel* channel, Options options);
  ~SynopsisServer();  // stop()s if still running
  SynopsisServer(const SynopsisServer&) = delete;
  SynopsisServer& operator=(const SynopsisServer&) = delete;

  /// Binds, listens and spawns the I/O thread. False on bind/listen failure
  /// (error written to errno by the failing call).
  bool start();

  /// Closes the listener and every connection, publishes any still-pending
  /// batches, and joins the I/O thread. Idempotent.
  void stop();

  bool running() const { return listener_.running(); }

  /// Actual bound port (resolves port 0); valid after start().
  std::uint16_t port() const { return listener_.port(); }

  /// Consumer-side flow control: report `n` synopses drained out of the
  /// channel, freeing watermark room for further publishes.
  void ack(std::uint64_t n);

  std::size_t active_connections() const { return listener_.active(); }

  /// Connections that completed the hello and have since ended (goodbye or
  /// disconnect). `serve --once` exits when this goes positive and the
  /// pipeline has drained.
  std::uint64_t sessions_finished() const {
    return sessions_.load(std::memory_order_relaxed);
  }

  /// Synopses published minus acked — the channel backlog this server is
  /// responsible for.
  std::uint64_t outstanding() const {
    return published_.load(std::memory_order_relaxed) -
           acked_.load(std::memory_order_relaxed);
  }

  /// True once every decoded batch has been published (nothing pending).
  bool drained() const;

  Stats stats() const;

 private:
  struct Impl;

  core::SynopsisChannel* channel_;
  Options options_;
  std::atomic<std::uint64_t> sessions_{0};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> acked_{0};
  std::unique_ptr<Impl> impl_;  // the listener's handler
  TcpListener listener_;
};

}  // namespace saad::net
