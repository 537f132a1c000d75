// Task execution synopsis (paper §3.2.2, §4.1): the tiny record a tracker
// emits when a task terminates, replacing all of the task's log text.
//
//   struct synopsis{ byte sid; int uid; int ts; int duration;
//                    { short lpid; int count; } log_points[]; }
//
// We add the host id (the analyzer is centralized and must distinguish stage
// instances per host) and encode with varints so typical synopses stay at a
// few tens of bytes, matching the paper's ~48 B average.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/time.h"
#include "core/ids.h"

namespace saad::core {

struct LogPointCount {
  LogPointId point = kInvalidLogPoint;
  std::uint32_t count = 0;

  friend bool operator==(const LogPointCount&, const LogPointCount&) = default;
};

struct Synopsis {
  HostId host = 0;
  StageId stage = kInvalidStage;
  TaskUid uid = 0;
  UsTime start = 0;     // task start time (us since experiment origin)
  UsTime duration = 0;  // start -> last encountered log point
  std::vector<LogPointCount> log_points;  // sorted by point id

  friend bool operator==(const Synopsis&, const Synopsis&) = default;
};

/// Appends the binary encoding of `s` to `out`. Returns encoded size.
std::size_t encode_synopsis(const Synopsis& s, std::vector<std::uint8_t>& out);

/// Decodes one synopsis from the front of `in`; advances `in` past it.
/// Returns false on malformed/truncated input (in which case `in` is left
/// unspecified and `out` partially filled).
bool decode_synopsis(std::span<const std::uint8_t>& in, Synopsis& out);

/// The same decode for batch readers: the scalar fields go to `out`, the log
/// points are appended to `points` (out.log_points is left alone), so the
/// records of a block can share one point pool.
bool decode_synopsis(std::span<const std::uint8_t>& in, Synopsis& out,
                     std::vector<LogPointCount>& points);

/// Size in bytes the synopsis would occupy on the wire.
std::size_t encoded_size(const Synopsis& s);

}  // namespace saad::core
