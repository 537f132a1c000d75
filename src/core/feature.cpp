#include "core/feature.h"

#include <algorithm>

#include "core/varint.h"

namespace saad::core {

Signature::Signature(std::vector<LogPointId> points)
    : points_(std::move(points)) {
  std::sort(points_.begin(), points_.end());
  points_.erase(std::unique(points_.begin(), points_.end()), points_.end());
}

Signature Signature::from(const Synopsis& synopsis) {
  return from(synopsis.log_points);
}

Signature Signature::from(std::span<const LogPointCount> points) {
  std::vector<LogPointId> pts;
  pts.reserve(points.size());
  for (const auto& lp : points) pts.push_back(lp.point);
  return Signature(std::move(pts));
}

bool Signature::contains(LogPointId p) const {
  return std::binary_search(points_.begin(), points_.end(), p);
}

std::string Signature::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(points_[i]);
  }
  out += '}';
  return out;
}

void put_signature(const Signature& sig, std::vector<std::uint8_t>& out) {
  put_varint(sig.points().size(), out);
  LogPointId prev = 0;
  for (const LogPointId p : sig.points()) {
    put_varint(static_cast<std::uint64_t>(p - prev), out);
    prev = p;
  }
}

bool get_signature(std::span<const std::uint8_t>& in, Signature& sig) {
  std::uint64_t count = 0;
  if (!get_varint(in, count) || count > 0x10000) return false;
  std::vector<LogPointId> points;
  points.reserve(count);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t delta = 0;
    if (!get_varint(in, delta)) return false;
    prev += delta;
    if (prev > 0xFFFF) return false;
    points.push_back(static_cast<LogPointId>(prev));
  }
  sig = Signature(std::move(points));
  return true;
}

Feature make_feature(const Synopsis& synopsis) {
  Feature f;
  f.uid = synopsis.uid;
  f.host = synopsis.host;
  f.stage = synopsis.stage;
  f.signature = Signature::from(synopsis);
  f.start = synopsis.start;
  f.duration = synopsis.duration;
  return f;
}

}  // namespace saad::core
