// Task execution synopsis (paper §3.2.2, §4.1): the tiny record a tracker
// emits when a task terminates, replacing all of the task's log text.
//
//   struct synopsis{ byte sid; int uid; int ts; int duration;
//                    { short lpid; int count; } log_points[]; }
//
// We add the host id (the analyzer is centralized and must distinguish stage
// instances per host) and encode with varints so typical synopses stay at a
// few tens of bytes, matching the paper's ~48 B average.
//
// Three forms of one synopsis:
//  * Synopsis, a value that owns its point list: what tests, training and
//    TraceWriter::append build and keep;
//  * SynopsisView, the same fields over points that live elsewhere;
//  * a record of a SynopsisBatch, the form synopses take in flight (trace
//    block, wire frame, channel shard, analyzer). Like §4.1's struct, whose
//    log_points[] sits inline, a record is fixed-size and its points sit in
//    one pool the whole batch shares, so a hop that moves synopses copies
//    flat arrays and allocates nothing once the batch has grown.
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

/// A synopsis read in place: valid while what holds its points is alive and
/// unchanged.
struct SynopsisView {
  HostId host = 0;
  StageId stage = kInvalidStage;
  TaskUid uid = 0;
  UsTime start = 0;
  UsTime duration = 0;
  std::span<const LogPointCount> log_points;  // sorted by point id
};

struct Synopsis {
  HostId host = 0;
  StageId stage = kInvalidStage;
  TaskUid uid = 0;
  UsTime start = 0;     // task start time (us since experiment origin)
  UsTime duration = 0;  // start -> last encountered log point
  std::vector<LogPointCount> log_points;  // sorted by point id

  operator SynopsisView() const {
    return {host, stage, uid, start, duration, log_points};
  }
  /// Refills this synopsis from `view`, reusing the point list's capacity.
  void assign(SynopsisView view);

  friend bool operator==(const Synopsis&, const Synopsis&) = default;
};

/// Synopses in flight: fixed-size records plus one shared point pool.
/// clear() keeps both arrays' capacity, so a batch that is refilled and
/// cleared in a loop stops allocating once it has held its largest load.
class SynopsisBatch {
 public:
  /// Range-for over a batch yields a view per record.
  struct Iterator {
    const SynopsisBatch* batch = nullptr;
    std::size_t i = 0;

    SynopsisView operator*() const { return (*batch)[i]; }
    Iterator& operator++() {
      ++i;
      return *this;
    }
    friend bool operator==(const Iterator&, const Iterator&) = default;
  };

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  SynopsisView operator[](std::size_t i) const {
    const Record& r = records_[i];
    const std::uint32_t begin = points_begin(i);
    return {r.host, r.stage, r.uid, r.start, r.duration,
            std::span(points_).subspan(begin, r.points_end - begin)};
  }
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size()}; }

  void append(SynopsisView s);
  /// Appends `other`'s records from `first` on (`other` is not this batch).
  void append(const SynopsisBatch& other, std::size_t first = 0);
  /// Drops the records from `n` on, and their points.
  void truncate(std::size_t n);
  void clear() { truncate(0); }
  void swap(SynopsisBatch& other) noexcept {
    records_.swap(other.records_);
    points_.swap(other.points_);
  }
  /// Appends a Synopsis value per record to `out`.
  void copy_to(std::vector<Synopsis>& out) const;

  friend bool operator==(const SynopsisBatch&, const SynopsisBatch&) = default;

 private:
  // Record i's points are points_[records_[i - 1].points_end,
  // records_[i].points_end): 32 bytes a record.
  struct Record {
    HostId host = 0;
    StageId stage = kInvalidStage;
    std::uint32_t points_end = 0;
    TaskUid uid = 0;
    UsTime start = 0;
    UsTime duration = 0;

    friend bool operator==(const Record&, const Record&) = default;
  };
  friend bool decode_synopsis(std::span<const std::uint8_t>& in,
                              SynopsisBatch& out);

  std::uint32_t points_begin(std::size_t i) const {
    return i == 0 ? 0 : records_[i - 1].points_end;
  }

  std::vector<Record> records_;
  std::vector<LogPointCount> points_;
};

/// Appends the binary encoding of `s` to `out`. Returns encoded size.
std::size_t encode_synopsis(SynopsisView s, std::vector<std::uint8_t>& out);

/// Decodes one synopsis from the front of `in` onto the end of `out`,
/// advancing `in` past it. Returns false on malformed/truncated input, and
/// then `out` is as it was before the call (`in` is left unspecified).
bool decode_synopsis(std::span<const std::uint8_t>& in, SynopsisBatch& out);

/// The same decode into a value, refilled in place. On false `out` is left
/// unspecified.
bool decode_synopsis(std::span<const std::uint8_t>& in, Synopsis& out);

/// Size in bytes the synopsis would occupy on the wire.
std::size_t encoded_size(SynopsisView s);

}  // namespace saad::core
