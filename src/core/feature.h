// Feature creation (paper §3.3.1): each synopsis becomes a feature vector
// <id, stage, signature, duration> where the signature is the *set* of
// distinct log points the task encountered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/synopsis.h"

namespace saad::core {

/// A task signature: sorted set of distinct log points encountered at least
/// once. "The slightest difference in signature is a strong indicator of a
/// difference in the execution flow" — equality is exact set equality.
class Signature {
 public:
  Signature() = default;

  /// From an explicit point list (deduplicated and sorted).
  explicit Signature(std::vector<LogPointId> points);

  static Signature from(const Synopsis& synopsis);
  static Signature from(std::span<const LogPointCount> points);

  const std::vector<LogPointId>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  bool contains(LogPointId p) const;

  std::string to_string() const;  // e.g. "{3,7,9}"

  friend bool operator==(const Signature&, const Signature&) = default;
  friend auto operator<=>(const Signature& a, const Signature& b) {
    return a.points_ <=> b.points_;
  }

 private:
  std::vector<LogPointId> points_;
};

/// Signature codec shared by model files, detector state and checkpoints:
/// varint point count, then the sorted points delta-encoded as varints.
void put_signature(const Signature& sig, std::vector<std::uint8_t>& out);

/// Reads one put_signature() encoding from the front of `in`, advancing it.
/// False on truncation, more than 0x10000 points, or a point beyond 0xFFFF.
bool get_signature(std::span<const std::uint8_t>& in, Signature& sig);

/// The analyzer's per-task feature vector.
struct Feature {
  TaskUid uid = 0;
  HostId host = 0;
  StageId stage = kInvalidStage;
  Signature signature;
  UsTime start = 0;
  UsTime duration = 0;
};

Feature make_feature(const Synopsis& synopsis);

}  // namespace saad::core
