// In-memory synopsis stream from per-host trackers to the centralized
// analyzer (paper §3.1: synopses are "streamed out to a centralized
// statistical analyzer", all in memory, never on persistent storage).
//
// Sharded MPSC design: the channel is split into kDefaultShards independent
// shards, each a mutex and one flat SynopsisBatch on their own cache lines.
// Producers either
//
//  * call push() directly — the calling thread's stable round-robin index
//    (saad::thread_index(), the one metric cells use) picks its shard, so
//    the first kDefaultShards producer threads each get a mutex of their own
//    and a single producer keeps strict FIFO order within its shard; or
//  * hold a Producer handle — a small local batch assigned its own shard
//    round-robin, appended to the shard under its mutex only once per
//    kBatch synopses (or on flush()/destruction), or a whole decoded batch
//    at once (the server's path). The common-case push is a plain append
//    with no atomics and no locks.
//
// Either way a push appends the synopsis's fields and points to flat
// arrays whose capacity the shard keeps, so it allocates nothing once the
// shard has held its largest load.
//
// The single consumer's drain(SynopsisBatch&) takes every shard in
// shard-index order: under each shard's mutex it swaps storage with an
// empty batch of its own, so the shard keeps a cleared batch with capacity
// and no record is copied under the lock; the first non-empty shard becomes
// `out` itself when `out` is empty. The relative order of synopses from one
// producer is always preserved; only the interleaving *between* producers
// is unspecified (exactly what a concurrent channel already implied). The
// value drain(std::vector<Synopsis>&) drains the same way, then copies the
// synopses into Synopsis values.
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

    void push(SynopsisView s);
    /// Flushes, then makes all of `batch` visible under one lock.
    void push(const SynopsisBatch& batch);
    void flush();

   private:
    SynopsisChannel* channel_;
    std::size_t shard_;
    SynopsisBatch buffer_;
  };

  /// Thread-safe multi-producer push; immediately visible to drain().
  void push(SynopsisView s);

  /// Creates a batched handle bound to the next shard (round-robin).
  Producer producer() { return Producer(*this); }

  /// Moves all queued synopses into `out` (appended), splicing shards in
  /// shard-index order. Single consumer, like the value form below.
  void drain(SynopsisBatch& out);
  /// The same, as Synopsis values.
  void drain(std::vector<Synopsis>& out);

  /// Lifetime totals over everything made visible so far (Fig. 8 reads
  /// encoded_bytes() as the stream's wire volume).
  std::uint64_t pushed() const;
  std::uint64_t encoded_bytes() const;

  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    SynopsisBatch items;              // guarded by mu
    std::uint64_t pushed = 0;         // guarded by mu
    std::uint64_t encoded_bytes = 0;  // guarded by mu
  };

  /// Appends `batch` to `shard` under its mutex and bumps the counters.
  void push_batch(std::size_t shard, const SynopsisBatch& batch);

  std::vector<Shard> shards_;
  std::atomic<std::size_t> next_producer_shard_{0};
  // The consumer's own: what drain() swaps out of a shard, and the value
  // drain's batch.
  SynopsisBatch taken_;
  SynopsisBatch values_;
};

}  // namespace saad::core
