// Warm-restart checkpoints for the serving pipeline (paper §4: the
// centralized analyzer is stateful — trained thresholds plus open detection
// windows — so a crash of `saad_offline serve` must not lose in-flight
// windows or force a retrain/reload cycle).
//
// File format "SAADCKP1": the 8-byte magic followed by CRC32C-framed
// sections, each
//
//   +------+-------------+---------+------------------+
//   | id   | payload_len | crc32c  | payload          |
//   | 1 B  | u32 LE      | u32 LE  | payload_len B    |
//   +------+-------------+---------+------------------+
//
// The CRC32C seeds with the id byte (the wire.h discipline), so a flipped
// id or a corrupted body are both detected, and the length is validated
// against kMaxCheckpointSection before any allocation. Section ids:
//
//   kMeta      varints: format version, sequence, model epoch,
//              zigzag(window), a thread count (always 1; the analyzer is
//              serial), synopses ingested, and the server's published/acked
//              watermark at capture.
//   kModel     the OutlierModel bytes (model_io.cpp's "SAADMDL1" codec).
//   kRegistry  the LogRegistry bytes (log_registry.cpp codec).
//   kAnalyzer  canonical detector state (AnomalyDetector::save_state) —
//              every open detection window's per-(host, stage) and
//              per-signature tallies.
//   kAnomalies verdicts already emitted before the checkpoint, so a resumed
//              serve's final report is byte-identical to an uninterrupted
//              run.
//   kEnd       empty payload, required last: its absence is a torn write.
//
// Validation is all-or-nothing: a checkpoint with any missing, truncated,
// reordered, or corrupt section (including a missing kEnd or trailing
// bytes) is rejected whole — there is no partial restore. CheckpointDir
// then falls back to the next-newest file, loudly, counting every rejected
// candidate in saad_checkpoint_corrupt_total.
//
// Write discipline is trace_io's: stream to `path + ".tmp"`, rename onto
// `path` only once complete, so a crash mid-write leaves the previous
// checkpoint untouched and at most a stale .tmp behind.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/varint.h"

namespace saad::core {

inline constexpr char kCheckpointMagic[8] = {'S', 'A', 'A', 'D',
                                             'C', 'K', 'P', '1'};
inline constexpr std::uint64_t kCheckpointVersion = 1;

/// Upper bound on one section payload; a length prefix beyond this is
/// damage (and keeps a corrupt file from making the reader allocate GBs).
inline constexpr std::size_t kMaxCheckpointSection = 64 * 1024 * 1024;

/// Section header size: id + payload_len + crc32c (varint.h's frame layout).
inline constexpr std::size_t kCheckpointSectionHeader = kFrameHeaderSize;

enum class CheckpointSection : std::uint8_t {
  kMeta = 1,
  kModel = 2,
  kRegistry = 3,
  kAnalyzer = 4,
  kAnomalies = 5,
  kEnd = 0x7F,
};

struct Checkpoint {
  std::uint64_t sequence = 0;     // monotone per directory; in the filename
  std::uint64_t model_epoch = 0;  // applied model swaps at capture
  UsTime window = 0;              // detector window; resume must match
  std::uint64_t threads = 0;      // format field: serve writes 1; unread
  std::uint64_t ingested = 0;     // synopses ingested (for the final report)
  std::uint64_t published = 0;    // server watermark: synopses -> channel
  std::uint64_t acked = 0;        // server watermark: synopses consumed
  std::vector<std::uint8_t> model;     // OutlierModel::save bytes
  std::vector<std::uint8_t> registry;  // LogRegistry::save bytes
  std::vector<std::uint8_t> analyzer;  // AnomalyDetector::save_state bytes
  std::vector<Anomaly> anomalies;      // verdicts emitted before capture
};

/// Appends the framed encoding of `c` to `out`.
void encode_checkpoint(const Checkpoint& c, std::vector<std::uint8_t>& out);

/// Strict decode: nullopt on any framing damage, CRC mismatch, unknown or
/// out-of-order section, missing end marker, or trailing bytes.
std::optional<Checkpoint> decode_checkpoint(std::span<const std::uint8_t> in);

/// Anomaly list codec, exposed for tests (kAnomalies uses it).
void encode_anomalies(std::span<const Anomaly> anomalies,
                      std::vector<std::uint8_t>& out);
bool decode_anomalies(std::span<const std::uint8_t> in,
                      std::vector<Anomaly>& out);

/// Writes `c` to `path` atomically (path + ".tmp", then rename). False on
/// any I/O failure; the previous file at `path`, if any, is untouched then.
bool write_checkpoint_file(const std::string& path, const Checkpoint& c);

/// Reads and strictly validates one checkpoint file.
std::optional<Checkpoint> read_checkpoint_file(const std::string& path);

/// A directory of `ckpt-<sequence>.saadckp` files with newest-valid
/// fallback. Not thread-safe; one writer (serve's LiveAnalyzer) owns it.
class CheckpointDir {
 public:
  explicit CheckpointDir(std::string dir);

  /// Creates the directory when missing. False when it cannot be used.
  bool ensure();

  const std::string& dir() const { return dir_; }
  std::string path_for(std::uint64_t sequence) const;

  /// Largest sequence among present files (valid or not), 0 when none —
  /// resume continues numbering above every file ever written.
  std::uint64_t max_sequence() const;

  /// Decodes the newest valid checkpoint, scanning newest-first. Every
  /// newer candidate that fails validation is counted (and reported in
  /// `corrupt_skipped` when non-null) — the loud fallback.
  std::optional<Checkpoint> load_latest(
      std::size_t* corrupt_skipped = nullptr) const;

  /// Atomically writes `c` at path_for(c.sequence), then prunes older
  /// checkpoints down to `keep` files. False on write failure.
  bool write(const Checkpoint& c, std::size_t keep = 4);

 private:
  std::string dir_;
};

}  // namespace saad::core
