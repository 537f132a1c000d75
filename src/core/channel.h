// In-memory synopsis stream from per-host trackers to the centralized
// analyzer (paper §3.1: synopses are "streamed out to a centralized
// statistical analyzer", all in memory, never on persistent storage).
//
// Sharded MPSC design: the channel is split into kDefaultShards independent
// shards, each a (mutex, vector) pair on its own cache lines. Producers either
//
//  * call push() directly — the calling thread's stable round-robin index
//    (saad::thread_index(), the one metric cells use) picks its shard, so
//    the first kDefaultShards producer threads each get a mutex of their own
//    and a single producer keeps strict FIFO order within its shard; or
//  * hold a Producer handle — a small fixed-size local buffer assigned its
//    own shard round-robin, flushed under the shard mutex only once per
//    kBatch synopses (or on flush()/destruction). This is the high-throughput
//    path: the common-case push is a plain vector append with no atomics and
//    no locks.
//
// The single consumer's drain() splices every shard in shard-index order, so
// the relative order of synopses from one producer is always preserved; only
// the interleaving *between* producers is unspecified (exactly what a
// concurrent channel already implied).
//
// The channel also keeps wire-volume accounting (encoded bytes), which the
// Fig. 8 storage-overhead bench reads. Each shard counts under its mutex
// when a synopsis becomes visible to drain() (i.e. at direct push or at
// Producer flush), and pushed()/encoded_bytes() sum the shards, so after
// every producer has flushed, pushed() == the number drain() returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/synopsis.h"

namespace saad::core {

class SynopsisChannel {
 public:
  static constexpr std::size_t kDefaultShards = 8;
  static constexpr std::size_t kBatch = 64;

  explicit SynopsisChannel(std::size_t shards = kDefaultShards);

  /// Batched producer handle. NOT thread-safe itself — create one per
  /// producer thread. Buffered synopses become visible to drain() at flush()
  /// (called automatically when the buffer fills and on destruction).
  class Producer {
   public:
    explicit Producer(SynopsisChannel& channel);
    ~Producer();
    Producer(Producer&& other) noexcept;
    Producer& operator=(Producer&&) = delete;
    Producer(const Producer&) = delete;
    Producer& operator=(const Producer&) = delete;

    void push(const Synopsis& s);
    void flush();

   private:
    SynopsisChannel* channel_;
    std::size_t shard_;
    std::vector<Synopsis> buffer_;
  };

  /// Thread-safe multi-producer push; immediately visible to drain().
  void push(const Synopsis& s);

  /// Creates a batched handle bound to the next shard (round-robin).
  Producer producer() { return Producer(*this); }

  /// Moves all queued synopses into `out` (appended), splicing shards in
  /// shard-index order. Single consumer.
  void drain(std::vector<Synopsis>& out);

  /// Lifetime totals over everything made visible so far (Fig. 8 reads
  /// encoded_bytes() as the stream's wire volume).
  std::uint64_t pushed() const;
  std::uint64_t encoded_bytes() const;

  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<Synopsis> items;     // guarded by mu
    std::uint64_t pushed = 0;        // guarded by mu
    std::uint64_t encoded_bytes = 0;  // guarded by mu
  };

  /// Moves `batch` into `shard` under its mutex and bumps the counters.
  void push_batch(std::size_t shard, std::vector<Synopsis>& batch);

  std::vector<Shard> shards_;
  std::atomic<std::size_t> next_producer_shard_{0};
};

}  // namespace saad::core
