// Byte-level codec primitives shared by the synopsis codec, the trace file
// format, the model serializer, checkpoints and the SAADNET1 wire:
// LEB128-style varints, zig-zag, doubles, little-endian u32s, and the
// CRC-framed record header.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/crc32c.h"

namespace saad::core {

inline void put_varint(std::uint64_t v, std::vector<std::uint8_t>& out) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Reads one varint from the front of `in`, advancing it. False on
/// truncated input, on encodings longer than 10 bytes, and on 10-byte
/// encodings whose final byte carries bits beyond the 64th — those bits
/// would otherwise be shifted out and silently dropped.
inline bool get_varint(std::span<const std::uint8_t>& in, std::uint64_t& v) {
  if (!in.empty() && in.front() < 0x80) {  // one byte: most synopsis fields
    v = in.front();
    in = in.subspan(1);
    return true;
  }
  v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (in.empty()) return false;
    const std::uint8_t byte = in.front();
    in = in.subspan(1);
    // The 10th byte (shift 63) has exactly one bit of room left in a u64.
    if (shift == 63 && (byte & 0x7F) > 1) return false;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;
}

inline std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Zig-zag mapping for signed values.
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Doubles are stored as their IEEE-754 bit pattern, little-endian.
inline void put_double(double d, std::vector<std::uint8_t>& out) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

inline bool get_double(std::span<const std::uint8_t>& in, double& d) {
  if (in.size() < 8) return false;
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i)
    bits |= static_cast<std::uint64_t>(in[static_cast<std::size_t>(i)])
            << (8 * i);
  in = in.subspan(8);
  __builtin_memcpy(&d, &bits, sizeof(d));
  return true;
}

inline void put_u32le(std::uint32_t v, std::uint8_t* dst) {
  for (int i = 0; i < 4; ++i)
    dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint32_t get_u32le(const std::uint8_t* src) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(src[i]) << (8 * i);
  return v;
}

// ---- CRC-framed records ---------------------------------------------------
// SAADNET1 wire frames and SAADCKP1 checkpoint sections share one layout:
//
//   id (1 B) | payload length (u32 LE) | crc32c (u32 LE) | payload
//
// The CRC32C runs over the id byte and then the payload, so a flipped id and
// a damaged body are both caught. Each format bounds the length itself.

inline constexpr std::size_t kFrameHeaderSize = 1 + 4 + 4;

inline std::uint32_t frame_crc(std::uint8_t id,
                               std::span<const std::uint8_t> payload) {
  return crc32c(payload, crc32c(std::span(&id, 1)));
}

/// Appends the framed record (header + payload) to `out`.
inline void put_frame(std::uint8_t id, std::span<const std::uint8_t> payload,
                      std::vector<std::uint8_t>& out) {
  std::uint8_t header[kFrameHeaderSize];
  header[0] = id;
  put_u32le(static_cast<std::uint32_t>(payload.size()), header + 1);
  put_u32le(frame_crc(id, payload), header + 5);
  out.insert(out.end(), header, header + kFrameHeaderSize);
  out.insert(out.end(), payload.begin(), payload.end());
}

struct FrameHeader {
  std::uint8_t id = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t crc = 0;
};

/// Reads the kFrameHeaderSize bytes at `src`; validation is the caller's.
inline FrameHeader get_frame_header(const std::uint8_t* src) {
  return {src[0], get_u32le(src + 1), get_u32le(src + 5)};
}

}  // namespace saad::core
