// CRC32C (Castagnoli polynomial, reflected). Checksums every trace block,
// wire frame and checkpoint section; picked over plain CRC32 because it is
// the de-facto storage checksum (iSCSI, ext4, LevelDB WAL) and x86 computes
// it in hardware. crc32c() runs the SSE4.2 kernel when the CPU has it —
// decided once, from CPUID, on first use — and the portable table loop
// otherwise. Both kernels produce identical sums.
#pragma once

#include <cstdint>
#include <span>

namespace saad {

/// CRC32C of `data`, chained onto `crc` (pass the previous return value to
/// checksum a stream incrementally; 0 starts a fresh sum).
std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t crc = 0);

namespace crc32c_kernels {

using Kernel = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);

/// Byte-at-a-time table loop: the fallback off x86 and the reference the
/// hardware kernel is tested against.
std::uint32_t table(std::span<const std::uint8_t> data, std::uint32_t crc);

/// The SSE4.2 kernel, or nullptr when the build target or the CPU lacks it.
Kernel hardware();

}  // namespace crc32c_kernels

}  // namespace saad
