#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace saad {

namespace {

// Reflected CRC32C table for the Castagnoli polynomial 0x1EDC6F41
// (reversed: 0x82F63B78), built at compile time.
constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr auto kTable = make_table();

#if defined(__x86_64__)
// The crc32 instruction computes exactly this reflected Castagnoli CRC; eight
// bytes per instruction, then the tail byte by byte.
__attribute__((target("sse4.2"))) std::uint32_t sse42_kernel(
    std::span<const std::uint8_t> data, std::uint32_t crc) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

}  // namespace

namespace crc32c_kernels {

std::uint32_t table(std::span<const std::uint8_t> data, std::uint32_t crc) {
  std::uint32_t c = ~crc;
  for (const std::uint8_t byte : data)
    c = kTable[(c ^ byte) & 0xFF] ^ (c >> 8);
  return ~c;
}

Kernel hardware() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &sse42_kernel;
#endif
  return nullptr;
}

}  // namespace crc32c_kernels

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t crc) {
  static const crc32c_kernels::Kernel kernel = [] {
    const auto hw = crc32c_kernels::hardware();
    return hw != nullptr ? hw : &crc32c_kernels::table;
  }();
  return kernel(data, crc);
}

}  // namespace saad
