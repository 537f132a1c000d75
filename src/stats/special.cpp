#include "stats/special.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace saad::stats {

namespace {

/// std::lgamma writes the process-global `signgam`, so two threads running
/// tests at once (two analyzers in one process, say) would race on it. All
/// our arguments are positive (gamma > 0), so the sign output is irrelevant
/// — use the reentrant lgamma_r where available.
double lgamma_threadsafe(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

/// Continued fraction for the incomplete beta function (modified Lentz).
double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3.0e-14;
  constexpr double kFpMin = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  assert(a > 0.0 && b > 0.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_bt = lgamma_threadsafe(a + b) - lgamma_threadsafe(a) -
                       lgamma_threadsafe(b) + a * std::log(x) +
                       b * std::log1p(-x);
  const double bt = std::exp(ln_bt);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return bt * betacf(a, b, x) / a;
  }
  return 1.0 - bt * betacf(b, a, 1.0 - x) / b;
}

double student_t_cdf(double t, double df) {
  assert(df > 0.0);
  if (std::isinf(t)) return t > 0 ? 1.0 : 0.0;
  const double x = df / (df + t * t);
  const double p = 0.5 * incomplete_beta(df / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - p : p;
}

double binomial_upper_tail(std::uint64_t k, std::uint64_t n, double p) {
  if (k == 0) return 1.0;
  if (k > n) return 0.0;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;

  if (n > 100000) {
    // Normal approximation with continuity correction.
    const double mu = static_cast<double>(n) * p;
    const double sd = std::sqrt(static_cast<double>(n) * p * (1.0 - p));
    const double z = (static_cast<double>(k) - 0.5 - mu) / sd;
    return 0.5 * std::erfc(z / std::sqrt(2.0));
  }

  // Exact: sum pmf from k..n in log space.
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  double tail = 0.0;
  for (std::uint64_t i = k; i <= n; ++i) {
    const double log_pmf =
        lgamma_threadsafe(static_cast<double>(n) + 1.0) -
        lgamma_threadsafe(static_cast<double>(i) + 1.0) -
        lgamma_threadsafe(static_cast<double>(n - i) + 1.0) +
        static_cast<double>(i) * log_p + static_cast<double>(n - i) * log_q;
    tail += std::exp(log_pmf);
    if (std::exp(log_pmf) < 1e-18 && i > k) break;  // negligible remainder
  }
  return std::min(tail, 1.0);
}

}  // namespace saad::stats
