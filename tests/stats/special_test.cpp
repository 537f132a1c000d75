#include "stats/special.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace saad::stats {
namespace {

double direct_lgamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

/// The exact binomial tail summed with an lgamma call per factorial, in
/// binomial_upper_tail's order.
double direct_upper_tail(std::uint64_t k, std::uint64_t n, double p) {
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  double tail = 0.0;
  for (std::uint64_t i = k; i <= n; ++i) {
    const double log_pmf =
        direct_lgamma(static_cast<double>(n) + 1.0) -
        direct_lgamma(static_cast<double>(i) + 1.0) -
        direct_lgamma(static_cast<double>(n - i) + 1.0) +
        static_cast<double>(i) * log_p + static_cast<double>(n - i) * log_q;
    tail += std::exp(log_pmf);
    if (std::exp(log_pmf) < 1e-18 && i > k) break;
  }
  return std::min(tail, 1.0);
}

TEST(IncompleteBeta, BoundaryValues) {
  EXPECT_DOUBLE_EQ(incomplete_beta(2, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2, 3, 1.0), 1.0);
}

TEST(IncompleteBeta, SymmetricCaseAtHalf) {
  // I_0.5(a, a) = 0.5 by symmetry.
  for (double a : {0.5, 1.0, 2.0, 10.0}) {
    EXPECT_NEAR(incomplete_beta(a, a, 0.5), 0.5, 1e-10) << "a=" << a;
  }
}

TEST(IncompleteBeta, UniformSpecialCase) {
  // I_x(1,1) = x.
  for (double x : {0.1, 0.25, 0.7, 0.99}) {
    EXPECT_NEAR(incomplete_beta(1, 1, x), x, 1e-12);
  }
}

TEST(IncompleteBeta, KnownValue) {
  // I_x(2,2) = x^2 (3 - 2x).
  const double x = 0.3;
  EXPECT_NEAR(incomplete_beta(2, 2, x), x * x * (3 - 2 * x), 1e-10);
}

TEST(StudentT, CdfAtZeroIsHalf) {
  for (double df : {1.0, 5.0, 30.0, 200.0}) {
    EXPECT_NEAR(student_t_cdf(0.0, df), 0.5, 1e-12);
  }
}

TEST(StudentT, SymmetricTails) {
  const double p_hi = student_t_cdf(2.0, 10);
  const double p_lo = student_t_cdf(-2.0, 10);
  EXPECT_NEAR(p_hi + p_lo, 1.0, 1e-12);
}

TEST(StudentT, KnownQuantiles) {
  // Classic t-table values: P(T <= 1.812) = 0.95 for df=10;
  // P(T <= 2.764) = 0.99 for df=10.
  EXPECT_NEAR(student_t_cdf(1.812, 10), 0.95, 1e-3);
  EXPECT_NEAR(student_t_cdf(2.764, 10), 0.99, 1e-3);
  // df=1 (Cauchy): P(T <= 1) = 0.75.
  EXPECT_NEAR(student_t_cdf(1.0, 1), 0.75, 1e-10);
}

TEST(StudentT, ConvergesToNormalForLargeDf) {
  // Standard normal: P(Z <= 1.96) ~ 0.975.
  EXPECT_NEAR(student_t_cdf(1.96, 1e6), 0.975, 1e-3);
}

TEST(StudentT, InfinityHandled) {
  EXPECT_DOUBLE_EQ(student_t_cdf(INFINITY, 5), 1.0);
  EXPECT_DOUBLE_EQ(student_t_cdf(-INFINITY, 5), 0.0);
}

TEST(BinomialUpperTail, DegenerateCases) {
  EXPECT_DOUBLE_EQ(binomial_upper_tail(0, 10, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(binomial_upper_tail(11, 10, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(binomial_upper_tail(5, 10, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_upper_tail(5, 10, 1.0), 1.0);
}

TEST(BinomialUpperTail, MatchesHandComputedValues) {
  // P(X >= 1), X ~ Bin(10, 0.1) = 1 - 0.9^10.
  EXPECT_NEAR(binomial_upper_tail(1, 10, 0.1), 1 - std::pow(0.9, 10), 1e-10);
  // P(X >= 10), X ~ Bin(10, 0.5) = 0.5^10.
  EXPECT_NEAR(binomial_upper_tail(10, 10, 0.5), std::pow(0.5, 10), 1e-10);
  // P(X >= 2), X ~ Bin(3, 0.5) = C(3,2)/8 + C(3,3)/8 = 0.5.
  EXPECT_NEAR(binomial_upper_tail(2, 3, 0.5), 0.5, 1e-12);
}

TEST(BinomialUpperTail, NormalApproxForHugeN) {
  // n > 100000 triggers the approximation; compare with the exact value of
  // a symmetric case: P(X >= n/2) ~ 0.5 for p=0.5.
  EXPECT_NEAR(binomial_upper_tail(100001, 200002, 0.5), 0.5, 0.01);
}

TEST(BinomialUpperTail, TabledFactorialsMatchDirectLgammaBitForBit) {
  // Every n up to 64 with every k, then n on both sides of the 1024-entry
  // table (n - i crosses it while i does not, and both do at n = 2000).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cases;
  for (std::uint64_t n = 1; n <= 64; ++n)
    for (std::uint64_t k = 1; k <= n; ++k) cases.emplace_back(k, n);
  for (std::uint64_t n : {1000u, 1023u, 1024u, 1025u, 1500u, 2000u}) {
    for (std::uint64_t k = 1; k <= n; k += 13) cases.emplace_back(k, n);
    cases.emplace_back(n - 1, n);
    cases.emplace_back(n, n);
  }
  for (const double p : {1e-4, 0.01, 0.2, 0.5, 0.97}) {
    for (const auto& [k, n] : cases) {
      const double tabled = binomial_upper_tail(k, n, p);
      const double direct = direct_upper_tail(k, n, p);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(tabled),
                std::bit_cast<std::uint64_t>(direct))
          << "k=" << k << " n=" << n << " p=" << p << ": " << tabled
          << " vs " << direct;
    }
  }
}

}  // namespace
}  // namespace saad::stats
