#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace saad::stats {

void Welford::add(double x) {
  n_++;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Welford::merge(const Welford& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
}

double Welford::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Welford::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> samples, double q) {
  return percentile_select(samples, q);
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  // No sample, no percentile: NaN is unmistakable at the call site, where
  // a silent 0.0 would become a threshold that flags everything.
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double percentile_select(std::span<double> samples, double q) {
  // percentile_sorted's arithmetic on the two order statistics it reads:
  // sorted[lo] is the lo-th smallest, sorted[lo + 1] the smallest after it.
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples.size())
    return *std::max_element(samples.begin(), samples.end());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples.begin(), nth, samples.end());
  const double next = *std::min_element(nth + 1, samples.end());
  return *nth * (1.0 - frac) + next * frac;
}

}  // namespace saad::stats
