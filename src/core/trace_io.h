// Synopsis trace files.
//
// SAAD keeps synopses in memory in production, "however, they could be
// stored for later inspection" (paper §5.3.2) — and storing them is how the
// train-offline/deploy-online workflow works. A trace file ("SAADTRC2") is
// the magic followed by checksummed blocks of varint-encoded synopses (the
// encoding the channel and the wire use):
//
//      +--------+-------------+--------------+---------+------------------+
//      | "BLK2" | payload_len | record_count | crc32c  | payload          |
//      | 4 B    | u32 LE      | u32 LE       | u32 LE  | encoded synopses |
//      +--------+-------------+--------------+---------+------------------+
//
// Every flush() seals a block, so a recorder killed mid-run (power cut,
// kill -9) loses at most the unflushed tail: TraceReader verifies each
// block's CRC32C, skips corrupt blocks (counted in TraceStats),
// resynchronizes on the "BLK2" marker after damaged framing, and stops
// cleanly at a torn tail. Reader and writer memory are O(one block), not
// O(trace) — a one-hour production trace streams through a few KB.
//
// The unframed v1 format ("SAADTRC1") is no longer read: a v1 file fails
// TraceReader::ok() with stats().version == 1, so tools can say why.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/synopsis.h"

namespace saad::core {

/// What a read pass saw: how much decoded cleanly and how much damage was
/// tolerated. A trace with blocks_corrupt == 0 && bytes_discarded == 0 is
/// pristine.
struct TraceStats {
  /// 2 for a readable trace; 1 for a legacy v1 file (unsupported, so the
  /// reader is not ok()); 0 when the magic is not recognized.
  int version = 0;
  std::uint64_t synopses = 0;         // records handed out by next()
  std::uint64_t blocks_total = 0;     // block headers seen (incl. corrupt)
  std::uint64_t blocks_corrupt = 0;   // blocks skipped (bad CRC/framing)
  std::uint64_t bytes_discarded = 0;  // corrupt-block + torn-tail bytes
  bool truncated_tail = false;        // file ended mid-record / mid-block
};

/// Streaming, crash-safe trace writer. Appended synopses are
/// buffered into a block; when the block payload reaches block_bytes — or on
/// an explicit flush() — the block is sealed (length + record count + CRC32C
/// header) and pushed to the OS, making everything up to that boundary
/// recoverable even if the process dies. finalize() publishes the file
/// atomically: the stream goes to `path + ".tmp"` and is renamed onto `path`
/// only once complete, so a reader at `path` never observes a half-written
/// file and a crash mid-record leaves any previous good trace untouched
/// (the torn ".tmp" remains readable block-by-block with TraceReader).
class TraceWriter {
 public:
  struct Options {
    std::size_t block_bytes = 64 * 1024;  // payload size that seals a block
    bool atomic_finalize = true;  // stream to path+".tmp", rename on finalize
  };

  explicit TraceWriter(std::string path) : TraceWriter(std::move(path), Options()) {}
  TraceWriter(std::string path, Options options);
  /// Flushes buffered synopses but never renames: destruction without
  /// finalize() models a crash and leaves the ".tmp" recoverable.
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// False after any I/O error; subsequent calls are no-ops.
  bool ok() const { return ok_; }

  /// Buffers one synopsis; seals and writes a block when full.
  bool append(SynopsisView s);

  /// Seals the current block (if non-empty) and flushes to the OS: a crash
  /// after flush() loses nothing appended before it.
  bool flush();

  /// flush() + close + (atomic mode) rename into place. Idempotent.
  bool finalize();

  std::uint64_t synopses_written() const { return synopses_; }
  std::uint64_t blocks_written() const { return blocks_; }
  /// Framed bytes written so far (file magic + sealed block frames).
  std::uint64_t bytes_written() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  bool write_block();

  std::string path_;
  std::string write_path_;  // path_ or path_ + ".tmp"
  Options options_;
  std::ofstream out_;
  std::vector<std::uint8_t> payload_;  // current unsealed block
  std::uint32_t payload_records_ = 0;
  std::uint64_t synopses_ = 0;
  std::uint64_t blocks_ = 0;
  std::uint64_t bytes_ = 0;
  bool ok_ = false;
  bool finalized_ = false;
};

/// Streaming trace reader. Hands out synopses a block at a time; damage
/// short of an unrecognizable magic is skipped and tallied in stats() rather
/// than failing the whole file. Each block is read into one reused buffer,
/// CRC checked, and decoded all-or-nothing into a SynopsisBatch, so memory
/// is bounded by one block and steady-state reading allocates nothing.
class TraceReader {
 public:
  explicit TraceReader(const std::string& path);

  /// False when the file could not be opened or carries no readable trace
  /// magic (version() then tells a legacy v1 file from an unknown one).
  bool ok() const { return ok_; }
  int version() const { return stats_.version; }

  /// Replaces `out` with the next CRC-verified block, or with the rest of
  /// the current one when next(Synopsis&) took part of it. The decoded batch
  /// itself is handed out: `out` and the reader swap storage, so nothing is
  /// copied. False, with `out` empty, at the end of recoverable data. Damage
  /// counters in stats() are final once next() has returned false.
  bool next(SynopsisBatch& out);

  /// Refills `out` in place with the next synopsis of the current block,
  /// reusing the capacity of its point list; false at the end.
  bool next(Synopsis& out);

  const TraceStats& stats() const { return stats_; }

  /// Peak framed block bytes buffered internally. Lets tests pin the
  /// O(one block) memory guarantee.
  std::size_t max_buffered_bytes() const { return max_buffered_; }

 private:
  bool read_exact(std::uint8_t* dst, std::size_t n, std::size_t* got);
  bool refill_block();
  bool decode_block(std::uint32_t record_count);

  std::ifstream in_;
  bool ok_ = false;
  TraceStats stats_;
  std::size_t max_buffered_ = 0;

  std::vector<std::uint8_t> payload_;  // the current block's payload
  std::vector<std::uint8_t> carry_;    // bytes consumed while resynchronizing
  SynopsisBatch block_;  // the current CRC-verified block
  std::size_t next_record_ = 0;  // block_'s first record not handed out
};

/// Writes `trace` via TraceWriter: temp file + atomic rename, so failure at
/// any point leaves a previous trace at `path` intact.
bool write_trace_file(const std::string& path, std::span<const Synopsis> trace);

/// Loads an entire trace file through TraceReader. nullopt when the file
/// cannot be opened or the magic is not a readable trace; lesser damage
/// (corrupt blocks, torn tail) yields the recoverable records, tallied in
/// `stats`.
std::optional<std::vector<Synopsis>> read_trace_file(
    const std::string& path, TraceStats* stats = nullptr);

}  // namespace saad::core
