#include "stats/kfold.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace saad::stats {
namespace {

KFoldStability stability(const std::vector<double>& samples, std::size_t k,
                         double quantile, double unstable_factor) {
  std::vector<double> scratch;
  return kfold_quantile_stability(samples, k, quantile, unstable_factor,
                                  scratch);
}

TEST(KFoldIndices, PartitionsAllIndicesExactlyOnce) {
  std::vector<bool> seen(103, false);
  for (std::size_t f = 0; f < 5; ++f) {
    const auto [begin, end] = kfold_range(103, 5, f);
    for (auto idx = begin; idx < end; ++idx) {
      ASSERT_LT(idx, 103u);
      ASSERT_FALSE(seen[idx]);
      seen[idx] = true;
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(KFoldIndices, FoldsAreBalanced) {
  for (std::size_t f = 0; f < 5; ++f) {
    const auto [begin, end] = kfold_range(100, 5, f);
    EXPECT_EQ(end - begin, 20u);
  }
}

TEST(KFoldIndices, ZeroSamples) {
  for (std::size_t f = 0; f < 3; ++f) {
    const auto [begin, end] = kfold_range(0, 3, f);
    EXPECT_EQ(begin, end);
  }
}

TEST(KFoldStability, TightDistributionIsStable) {
  // Lognormal with small sigma: p99 threshold generalizes across folds.
  saad::Rng rng(1);
  std::vector<double> samples(5000);
  for (auto& s : samples) s = rng.lognormal_median(10000, 0.2);
  const auto result = stability(samples, 5, 0.99, 2.0);
  EXPECT_TRUE(result.stable);
  EXPECT_NEAR(result.mean_heldout_outlier_rate, 0.01, 0.01);
}

TEST(KFoldStability, NonstationaryRegimeShiftIsUnstable) {
  // The duration distribution changes partway through the training trace
  // (e.g. a load regime): a threshold trained on the early blocks wildly
  // misclassifies the late block. No single p99 is meaningful for this flow.
  saad::Rng rng(2);
  std::vector<double> samples;
  for (int i = 0; i < 800; ++i) samples.push_back(rng.uniform(1, 2));
  for (int i = 0; i < 200; ++i) samples.push_back(rng.uniform(100, 1000));
  const auto result = stability(samples, 5, 0.99, 2.0);
  EXPECT_FALSE(result.stable);
  EXPECT_GT(result.mean_heldout_outlier_rate, 0.02);
}

TEST(KFoldStability, StationaryHeavyTailRemainsStable) {
  // I.i.d. samples, even with a heavy tail, generalize: the held-out
  // outlier rate stays near the nominal 1%.
  saad::Rng rng(21);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(rng.chance(0.15) ? rng.uniform(100, 1000)
                                       : rng.uniform(1, 2));
  }
  const auto result = stability(samples, 5, 0.99, 2.0);
  EXPECT_TRUE(result.stable);
}

TEST(KFoldIndices, BlocksAreContiguousAndOrdered) {
  std::size_t expected = 0;
  for (std::size_t f = 0; f < 3; ++f) {
    const auto [begin, end] = kfold_range(10, 3, f);
    EXPECT_EQ(begin, expected);
    EXPECT_GT(end, begin);
    expected = end;
  }
  EXPECT_EQ(expected, 10u);
}

TEST(KFoldStability, TooFewSamplesReportedUnstable) {
  const std::vector<double> tiny = {1, 2, 3};
  const auto result = stability(tiny, 5, 0.99, 2.0);
  EXPECT_FALSE(result.stable);
}

TEST(KFoldStability, KBelowTwoReportedUnstable) {
  const std::vector<double> samples(100, 1.0);
  const auto result = stability(samples, 1, 0.99, 2.0);
  EXPECT_FALSE(result.stable);
}

TEST(KFoldStability, ConstantSamplesAreStable) {
  // All durations identical: nothing exceeds the threshold, perfectly stable.
  const std::vector<double> samples(500, 42.0);
  const auto result = stability(samples, 5, 0.99, 2.0);
  EXPECT_TRUE(result.stable);
  EXPECT_EQ(result.mean_heldout_outlier_rate, 0.0);
}

class UnstableFactorSweep : public ::testing::TestWithParam<double> {};

TEST_P(UnstableFactorSweep, HigherFactorIsMorePermissive) {
  saad::Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) samples.push_back(rng.lognormal_median(100, 1.2));
  const auto strict = stability(samples, 5, 0.99, 0.1);
  const auto at_param = stability(samples, 5, 0.99, GetParam());
  // The held-out rate is identical; only the verdict changes with the factor.
  EXPECT_DOUBLE_EQ(strict.mean_heldout_outlier_rate,
                   at_param.mean_heldout_outlier_rate);
  if (strict.stable) {
    EXPECT_TRUE(at_param.stable);
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, UnstableFactorSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0));

}  // namespace
}  // namespace saad::stats
