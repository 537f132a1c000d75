// The seeded synthetic synopsis stream that the checkpoint, live-analyzer
// and network suites share, and a full-precision verdict dump to compare
// runs by.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"

namespace saad::testutil {

/// One line per verdict at full precision: any drift in value, order, or
/// count shows up as a string diff.
inline std::string dump(const std::vector<core::Anomaly>& anomalies) {
  std::string out;
  char line[256];
  for (const auto& a : anomalies) {
    std::snprintf(line, sizeof line,
                  "w=%zu ws=%lld h=%u s=%u k=%d new=%d p=%.17g prop=%.17g "
                  "train=%.17g n=%llu out=%llu sig=%s\n",
                  a.window, static_cast<long long>(a.window_start), a.host,
                  a.stage, static_cast<int>(a.kind),
                  a.due_to_new_signature ? 1 : 0, a.p_value, a.proportion,
                  a.train_proportion, static_cast<unsigned long long>(a.n),
                  static_cast<unsigned long long>(a.outliers),
                  a.example_signature.to_string().c_str());
    out += line;
  }
  return out;
}

/// `count` synopses starting 700 us apart, over 6 hosts and 12 stages. Each
/// takes one of three signatures of its stage, plus a rare log point with
/// probability `rare_rate`, and runs 40 times longer with probability
/// `slow_rate`.
inline std::vector<core::Synopsis> make_trace(std::uint64_t seed,
                                              std::size_t count,
                                              double rare_rate,
                                              double slow_rate) {
  constexpr core::StageId kStages = 12;
  constexpr core::HostId kHosts = 6;
  Rng rng(seed);
  std::vector<core::Synopsis> trace;
  trace.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::Synopsis s;
    s.stage = static_cast<core::StageId>(rng.next_below(kStages));
    s.host = static_cast<core::HostId>(rng.next_below(kHosts));
    s.start = static_cast<UsTime>(i) * 700;
    const auto base = static_cast<core::LogPointId>(s.stage * 8);
    s.log_points.push_back({base, 1});
    const auto variant = rng.next_below(3);
    for (std::uint64_t v = 0; v <= variant; ++v)
      s.log_points.push_back({static_cast<core::LogPointId>(base + 1 + v), 2});
    if (rng.next_double() < rare_rate)
      s.log_points.push_back({static_cast<core::LogPointId>(base + 7), 1});
    s.duration = 1000 + static_cast<UsTime>(rng.next_below(3000));
    if (rng.next_double() < slow_rate) s.duration *= 40;
    trace.push_back(std::move(s));
  }
  return trace;
}

}  // namespace saad::testutil
