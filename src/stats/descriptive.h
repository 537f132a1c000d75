// Descriptive statistics: streaming mean/variance (Welford) and exact
// percentiles over sample vectors. The SAAD training pass is deliberately
// limited to "counting and computing percentiles" (paper §4.2); this is that
// machinery.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace saad::stats {

/// Numerically stable streaming mean / variance.
class Welford {
 public:
  void add(double x);
  void merge(const Welford& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for n < 2.
  double variance() const;
  double stddev() const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Exact percentile of a sample (nearest-rank with linear interpolation).
/// `q` in [0,1]. Selects on a copy (percentile_select); use
/// percentile_sorted when already sorted. Empty input returns quiet NaN
/// (see percentile_sorted).
double percentile(std::vector<double> samples, double q);

/// Same, but requires `sorted` to be ascending. An empty sample has no
/// percentile: returns quiet NaN as an explicit sentinel — callers must
/// check std::isnan/std::isfinite rather than receive a silent 0.0 (which a
/// duration-threshold caller would read as "every task is an outlier").
double percentile_sorted(const std::vector<double>& sorted, double q);

/// The same percentile by selection instead of a sort: reorders `samples`
/// in place (nth_element for the lower rank, the minimum of the rest for the
/// upper one) and returns exactly the double percentile_sorted returns over
/// a sorted copy, in linear time. Empty input returns quiet NaN.
double percentile_select(std::span<double> samples, double q);

}  // namespace saad::stats
