// Wire protocol for live synopsis ingestion (paper §3, Fig. 2: instrumented
// servers stream ~48-byte synopses to a *centralized* analyzer).
//
// A connection is a byte stream that starts with the 8-byte protocol magic
// "SAADNET1" and then carries back-to-back frames:
//
//   +------+-------------+---------+------------------+
//   | type | payload_len | crc32c  | payload          |
//   | 1 B  | u32 LE      | u32 LE  | payload_len B    |
//   +------+-------------+---------+------------------+
//
// The CRC32C covers the type byte and the payload, so a flipped type or a
// corrupted body are both detected; the length field is validated against
// kMaxFramePayload before any allocation, so a corrupted length can never
// cause an oversized buffer. Frame types:
//
//   kHello      first frame on every connection: varint protocol version +
//               varint host hint + varint flags. A version the receiver does
//               not speak rejects the connection (there is nothing to resync
//               to — framing itself is versioned).
//   kBatch      varint record count + that many varint-encoded synopses (the
//               same codec the channel and the trace file use).
//   kHeartbeat  empty payload; keeps idle connections distinguishable from
//               dead ones.
//   kGoodbye    varint synopses sent *on this connection* (not the sender's
//               lifetime total — after an outage + reconnect the receiver
//               only saw this connection), so the receiver can audit the
//               session before the FIN.
//
// Damage policy: TCP guarantees ordered delivery, so framing damage means a
// corrupted or malicious peer, not reordering. After any decode error the
// stream is poisoned — the decoder latches the error and the server drops
// the connection (and counts it), rather than guessing where the next frame
// boundary might be.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/ids.h"
#include "core/synopsis.h"
#include "core/varint.h"

namespace saad::net {

/// Stream prologue: sent once, before the first frame.
inline constexpr std::uint8_t kStreamMagic[8] = {'S', 'A', 'A', 'D',
                                                 'N', 'E', 'T', '1'};
inline constexpr std::uint64_t kProtocolVersion = 1;

/// Upper bound on a frame payload; a length prefix beyond this is framing
/// damage (and keeps a hostile peer from making the receiver allocate GBs).
inline constexpr std::size_t kMaxFramePayload = 4 * 1024 * 1024;

/// Fixed frame header size: type + payload_len + crc32c.
inline constexpr std::size_t kFrameHeaderBytes = core::kFrameHeaderSize;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kBatch = 2,
  kHeartbeat = 3,
  kGoodbye = 4,
};

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::vector<std::uint8_t> payload;
};

struct Hello {
  std::uint64_t version = kProtocolVersion;
  core::HostId host = 0;  // advisory: the sender's host id, 0 if unknown
  std::uint64_t flags = 0;
};

/// Appends one framed message (header + payload) to `out`.
void encode_frame(FrameType type, std::span<const std::uint8_t> payload,
                  std::vector<std::uint8_t>& out);

/// Payload builders/parsers. Parsers return false on malformed payloads
/// (which poison the connection exactly like framing damage).
void encode_hello(const Hello& hello, std::vector<std::uint8_t>& out);
bool decode_hello(std::span<const std::uint8_t> payload, Hello& out);

void encode_batch(std::span<const core::Synopsis> batch,
                  std::vector<std::uint8_t>& out);
/// Appends the payload's synopses to `out`; on false, `out` is as it was.
bool decode_batch(std::span<const std::uint8_t> payload,
                  core::SynopsisBatch& out);
/// The same, as Synopsis values.
bool decode_batch(std::span<const std::uint8_t> payload,
                  std::vector<core::Synopsis>& out);

void encode_goodbye(std::uint64_t total_synopses,
                    std::vector<std::uint8_t>& out);
bool decode_goodbye(std::span<const std::uint8_t> payload,
                    std::uint64_t& total_synopses);

/// Why a stream was rejected; one enumerator per saad_net_*_rejects metric.
enum class WireError : std::uint8_t {
  kNone = 0,
  kBadMagic,     // prologue is not "SAADNET1"
  kBadType,      // frame type byte outside the enum
  kOversized,    // payload_len > kMaxFramePayload
  kBadCrc,       // checksum mismatch on a complete frame
  kBadPayload,   // frame intact but its payload failed to parse
  kNotHello,     // first frame was not kHello
  kBadVersion,   // hello carried a version we do not speak
};
const char* to_string(WireError error);

/// Incremental frame reassembler: feed() raw socket bytes, next() pops
/// completed frames. Tolerates arbitrary fragmentation (one byte at a time
/// is fine). After the first error the decoder is poisoned: feed() ignores
/// further input and no new frames are sliced — the caller must drop the
/// connection. Frames that completed *before* the damage stay poppable:
/// they were validly framed and CRC-checked, and the server has typically
/// already acted on them.
///
/// A completed frame stays in the reassembly buffer as (type, offset,
/// length) until next() copies its payload into the caller's Frame, whose
/// capacity it reuses; the next feed() drops the bytes of popped frames.
/// So a caller that pops into one Frame makes no allocation per frame once
/// the buffers have grown.
class FrameDecoder {
 public:
  /// expect_magic: require the "SAADNET1" prologue (the server side).
  explicit FrameDecoder(bool expect_magic = true);

  /// Buffers `data` and slices out any completed frames. Returns false once
  /// the stream is poisoned (error() says why).
  bool feed(std::span<const std::uint8_t> data);

  /// Pops the oldest completed frame; false when none is pending.
  bool next(Frame& out);

  WireError error() const { return error_; }
  bool failed() const { return error_ != WireError::kNone; }

  /// True while the buffer holds a partial prologue/header/frame — a
  /// disconnect now is a mid-frame truncation.
  bool mid_frame() const { return !failed() && buffered_bytes() > 0; }

  /// Bytes buffered towards a frame not yet complete (bounded by one frame
  /// + one header).
  std::size_t buffered_bytes() const { return buffer_.size() - sliced_; }

 private:
  struct Slice {
    FrameType type;
    std::size_t offset;  // of the payload in buffer_
    std::uint32_t size;
  };

  /// Drops popped frames and their bytes from the front of the buffer.
  void discard_popped();

  bool magic_pending_;
  WireError error_ = WireError::kNone;
  std::vector<std::uint8_t> buffer_;
  std::size_t sliced_ = 0;  // bytes of buffer_ checked: prologue and frames
  std::vector<Slice> ready_;
  std::size_t popped_ = 0;  // leading entries of ready_ next() handed out
};

/// Registers every saad_net_* and saad_http_* metric family in the global
/// registry (synopsis server, client, and the admin listener), so snapshots
/// taken by tools that link the net layer always expose the full set,
/// zero-valued when unused. Mirrors core::register_pipeline_metrics()
/// (core/telemetry.h).
void register_net_metrics();

namespace detail {
void register_server_metrics();
void register_client_metrics();
void register_http_metrics();  // defined in http.cpp
}  // namespace detail

}  // namespace saad::net
