#include "core/synopsis.h"

#include <algorithm>
#include <cassert>

#include "core/varint.h"

namespace saad::core {

std::size_t encode_synopsis(const Synopsis& s, std::vector<std::uint8_t>& out) {
  const std::size_t before = out.size();
  put_varint(s.host, out);
  put_varint(s.stage, out);
  put_varint(s.uid, out);
  put_varint(zigzag(s.start), out);
  put_varint(zigzag(s.duration), out);
  put_varint(s.log_points.size(), out);
  // Delta-encode point ids (sorted ascending) to shave bytes.
  LogPointId prev = 0;
  for (const auto& lp : s.log_points) {
    assert(lp.point >= prev);
    put_varint(static_cast<std::uint64_t>(lp.point - prev), out);
    put_varint(lp.count, out);
    prev = lp.point;
  }
  return out.size() - before;
}

bool decode_synopsis(std::span<const std::uint8_t>& in, Synopsis& out) {
  out.log_points.clear();
  return decode_synopsis(in, out, out.log_points);
}

bool decode_synopsis(std::span<const std::uint8_t>& in, Synopsis& out,
                     std::vector<LogPointCount>& points) {
  std::uint64_t v = 0;
  if (!get_varint(in, v) || v > 0xFFFF) return false;
  out.host = static_cast<HostId>(v);
  if (!get_varint(in, v) || v > 0xFFFF) return false;
  out.stage = static_cast<StageId>(v);
  if (!get_varint(in, v)) return false;
  out.uid = v;
  if (!get_varint(in, v)) return false;
  out.start = unzigzag(v);
  if (!get_varint(in, v)) return false;
  out.duration = unzigzag(v);
  if (!get_varint(in, v)) return false;
  const std::uint64_t n = v;
  if (n > 0x10000) return false;  // more points than ids exist: malformed
  // Exact for a lone record, geometric for a shared pool.
  const std::size_t need = points.size() + n;
  if (points.capacity() < need)
    points.reserve(std::max(need, 2 * points.capacity()));
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t delta = 0, count = 0;
    if (!get_varint(in, delta) || !get_varint(in, count)) return false;
    prev += delta;
    if (prev > 0xFFFF || count > 0xFFFFFFFFull) return false;
    points.push_back(LogPointCount{static_cast<LogPointId>(prev),
                                   static_cast<std::uint32_t>(count)});
  }
  return true;
}

std::size_t encoded_size(const Synopsis& s) {
  std::size_t n = varint_size(s.host) + varint_size(s.stage) +
                  varint_size(s.uid) + varint_size(zigzag(s.start)) +
                  varint_size(zigzag(s.duration)) +
                  varint_size(s.log_points.size());
  LogPointId prev = 0;
  for (const auto& lp : s.log_points) {
    n += varint_size(static_cast<std::uint64_t>(lp.point - prev)) +
         varint_size(lp.count);
    prev = lp.point;
  }
  return n;
}

}  // namespace saad::core
