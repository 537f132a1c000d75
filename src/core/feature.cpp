#include "core/feature.h"

#include <algorithm>

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

std::size_t SignatureHash::operator()(const Signature& s) const noexcept {
  // FNV-1a over the point ids.
  std::size_t h = 1469598103934665603ull;
  for (LogPointId p : s.points()) {
    h ^= p;
    h *= 1099511628211ull;
  }
  return h;
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
