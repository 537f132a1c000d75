#include "core/synopsis.h"

#include <algorithm>
#include <cassert>

#include "core/varint.h"

namespace saad::core {

std::size_t encode_synopsis(SynopsisView s, std::vector<std::uint8_t>& out) {
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

namespace {

/// The one decoder: the scalar fields go to `out`, the points are appended
/// to `points`. On false, some fields and points may already be written.
template <class Fields>
bool decode_record(std::span<const std::uint8_t>& in, Fields& out,
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

}  // namespace

bool decode_synopsis(std::span<const std::uint8_t>& in, SynopsisBatch& out) {
  SynopsisBatch::Record record;
  if (!decode_record(in, record, out.points_) ||
      out.points_.size() > UINT32_MAX) {
    out.points_.resize(out.points_begin(out.size()));  // no orphaned points
    return false;
  }
  record.points_end = static_cast<std::uint32_t>(out.points_.size());
  out.records_.push_back(record);
  return true;
}

bool decode_synopsis(std::span<const std::uint8_t>& in, Synopsis& out) {
  out.log_points.clear();
  return decode_record(in, out, out.log_points);
}

std::size_t encoded_size(SynopsisView s) {
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

void Synopsis::assign(SynopsisView view) {
  host = view.host;
  stage = view.stage;
  uid = view.uid;
  start = view.start;
  duration = view.duration;
  log_points.assign(view.log_points.begin(), view.log_points.end());
}

void SynopsisBatch::append(SynopsisView s) {
  points_.insert(points_.end(), s.log_points.begin(), s.log_points.end());
  assert(points_.size() <= UINT32_MAX);
  records_.push_back({s.host, s.stage,
                      static_cast<std::uint32_t>(points_.size()), s.uid,
                      s.start, s.duration});
}

void SynopsisBatch::append(const SynopsisBatch& other, std::size_t first) {
  assert(&other != this && first <= other.size());
  const std::uint32_t from = other.points_begin(first);
  const auto base = static_cast<std::uint32_t>(points_.size());
  points_.insert(points_.end(), other.points_.begin() + from,
                 other.points_.end());
  assert(points_.size() <= UINT32_MAX);
  const std::size_t at = records_.size();
  records_.insert(records_.end(),
                  other.records_.begin() + static_cast<std::ptrdiff_t>(first),
                  other.records_.end());
  for (std::size_t i = at; i < records_.size(); ++i)
    records_[i].points_end = records_[i].points_end - from + base;
}

void SynopsisBatch::truncate(std::size_t n) {
  if (n >= records_.size()) return;
  points_.resize(points_begin(n));
  records_.resize(n);
}

void SynopsisBatch::copy_to(std::vector<Synopsis>& out) const {
  out.reserve(out.size() + size());
  for (const SynopsisView s : *this) out.emplace_back().assign(s);
}

}  // namespace saad::core
