// A compatibility name for the bare AnomalyDetector. The one caller left is
// the benchmark's perfbench/tool/layers.cpp, which still spells the detector
// `AnalyzerPool` and asks it for threads(). The analyzer is serial (DESIGN.md
// §6), and the engine behind `detect` and `serve` is core::LiveAnalyzer.
#pragma once

#include <cstddef>

#include "core/detector.h"

namespace saad::core {

struct AnalyzerPool : AnomalyDetector {
  using AnomalyDetector::AnomalyDetector;
  std::size_t threads() const { return 1; }
};

}  // namespace saad::core
