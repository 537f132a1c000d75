// LEB128-style varint primitives shared by the synopsis codec, the trace
// file format and the model serializer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

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

}  // namespace saad::core
