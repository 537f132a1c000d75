// Special functions needed for the analyzer's hypothesis tests:
// regularized incomplete beta -> Student-t CDF, and binomial tails.
// Implementations follow the continued-fraction expansion of Numerical
// Recipes (Lentz's method), re-derived from the published formulas.
#pragma once

#include <cstdint>

namespace saad::stats {

/// Regularized incomplete beta function I_x(a, b), a,b > 0, x in [0,1].
double incomplete_beta(double a, double b, double x);

/// CDF of Student's t distribution with `df` degrees of freedom.
double student_t_cdf(double t, double df);

/// Upper-tail probability P(X >= k) for X ~ Binomial(n, p).
/// Exact summation for small n, normal approximation above `n > 100000`.
/// The exact sum reads ln(i!) from a table for i < 1024 (lgamma above), with
/// the same bits a direct lgamma call gives.
double binomial_upper_tail(std::uint64_t k, std::uint64_t n, double p);

}  // namespace saad::stats
