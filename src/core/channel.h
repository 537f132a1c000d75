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
//
// The consumer can block instead of polling: wait_for(end, timeout) returns
// true as soon as a visible synopsis ends (start + duration) at or after
// `end`, and false once `timeout` passes. `serve` waits on the end time at
// which its analyzer closes the next window, so it wakes when a window's
// verdicts are due rather than on every publish (DESIGN.md §6). One thread
// waits at a time, the one that drains. Each shard keeps the newest end time
// it holds, under its mutex: every append raises it and drain() resets it.
// One atomic threshold, on a cache line of its own, holds the waiter's `end`,
// and the maximum UsTime while nobody waits. After unlocking its shard, a
// producer compares the end it appended with the threshold, and only a
// crossing takes the wait mutex and notifies; the rest of the time a push
// pays one load and one compare of a line that only the waiter writes.
//
// No wake is lost. The waiter stores its threshold, then, holding the wait
// mutex, reads every shard's newest end under that shard's mutex before it
// sleeps (the condition variable releases the wait mutex as it blocks). A
// producer's append either took its shard's mutex before the waiter's read
// of that shard, and the read sees it, or after, and then the waiter's
// store of the threshold happens before the producer's load of it (the
// shard mutex orders the two), so the producer sees the threshold, crosses
// it, and notifies. It notifies under the wait mutex, which the waiter holds
// from its reads until it blocks, so the notify cannot fall between them.
// The waiter re-reads the shards after every wake-up, so a spurious or stale
// wake-up never makes it return true.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
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

  /// Blocks until a queued synopsis ends (start + duration) at or after
  /// `end`, true then, or until `timeout` passes with none queued, false
  /// then. For the one consumer: at most one thread may wait at a time.
  bool wait_for(UsTime end, std::chrono::microseconds timeout);

  /// Lifetime totals over everything made visible so far (Fig. 8 reads
  /// encoded_bytes() as the stream's wire volume).
  std::uint64_t pushed() const;
  std::uint64_t encoded_bytes() const;

  std::size_t shard_count() const { return shards_.size(); }

 private:
  static constexpr UsTime kNoWaiter = std::numeric_limits<UsTime>::max();
  static constexpr UsTime kNothingQueued = std::numeric_limits<UsTime>::min();

  struct alignas(64) Shard {
    mutable std::mutex mu;
    SynopsisBatch items;                 // guarded by mu
    UsTime newest_end = kNothingQueued;  // of `items`; guarded by mu
    std::uint64_t pushed = 0;            // guarded by mu
    std::uint64_t encoded_bytes = 0;     // guarded by mu
  };

  /// Appends `batch` to `shard` under its mutex and bumps the counters.
  void push_batch(std::size_t shard, const SynopsisBatch& batch);
  /// A producer's half of wait_for(): wakes the waiter if `end` reaches it.
  void wake_if_due(UsTime end) {
    if (end >= wake_at_.load()) wake();
  }
  void wake();
  /// True if some shard holds a synopsis that ends at or after `end`.
  bool queued_through(UsTime end);

  std::vector<Shard> shards_;
  std::atomic<std::size_t> next_producer_shard_{0};
  // wait_for()'s threshold, on a cache line of its own: producers read it
  // after every append, and only the waiter writes it.
  alignas(64) std::atomic<UsTime> wake_at_{kNoWaiter};
  // Held by the waiter from its look at the shards until it sleeps, and by
  // a crossing producer while it notifies.
  alignas(64) std::mutex wait_mu_;
  std::condition_variable woken_;
  // The consumer's own: what drain() swaps out of a shard, and the value
  // drain's batch.
  SynopsisBatch taken_;
  SynopsisBatch values_;
};

}  // namespace saad::core
