#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace saad::stats {
namespace {

TEST(Welford, EmptyIsZero) {
  Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.mean(), 0.0);
  EXPECT_EQ(w.variance(), 0.0);
}

TEST(Welford, MeanAndVarianceMatchDefinition) {
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations is 32.
  EXPECT_NEAR(w.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Welford, SingleSampleVarianceZero) {
  Welford w;
  w.add(3.0);
  EXPECT_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
}

TEST(Welford, MergeEqualsCombinedStream) {
  Welford a, b, combined;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37;
    const double y = 50 - i * 0.11;
    a.add(x);
    b.add(y);
    combined.add(x);
    combined.add(y);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
}

TEST(Welford, MergeWithEmptyIsIdentity) {
  Welford a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

// An empty sample has no percentile: the NaN sentinel forces callers to
// decide (model.cpp checks isfinite before trusting a threshold), where the
// old silent 0.0 made every real duration look like an outlier.
TEST(Percentile, EmptyIsNaN) {
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
  EXPECT_TRUE(std::isnan(percentile({}, 0.0)));
  EXPECT_TRUE(std::isnan(percentile({}, 1.0)));
}

TEST(Percentile, SingleElementIsThatElement) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 1.0), 42.0);
}

TEST(Percentile, NonEmptyNeverNaN) {
  const std::vector<double> v = {3.5, 1.25, 2.0, 9.75};
  for (const double q : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0})
    EXPECT_TRUE(std::isfinite(percentile(v, q))) << "q=" << q;
}

TEST(Percentile, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(percentile({3, 1, 2}, 0.5), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  // Sorted {10, 20}: q=0.5 -> midpoint.
  EXPECT_DOUBLE_EQ(percentile({20, 10}, 0.5), 15.0);
}

TEST(Percentile, ExtremesAreMinMax) {
  std::vector<double> v = {5, 9, 1, 7};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, ClampsOutOfRangeQ) {
  std::vector<double> v = {1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 2.0), 3.0);
}

TEST(PercentileSorted, P99OfUniformRange) {
  std::vector<double> v(1000);
  for (int i = 0; i < 1000; ++i) v[i] = i + 1;  // 1..1000 sorted
  EXPECT_NEAR(percentile_sorted(v, 0.99), 990.01, 0.5);
}

TEST(PercentileSorted, EmptyIsNaN) {
  EXPECT_TRUE(std::isnan(percentile_sorted({}, 0.99)));
}

TEST(PercentileSorted, SingleElementIsThatElement) {
  EXPECT_DOUBLE_EQ(percentile_sorted({7.0}, 0.99), 7.0);
}

TEST(PercentileSelect, MatchesSortedCopyBitForBit) {
  saad::Rng rng(5);
  for (std::size_t n : {1u, 2u, 3u, 7u, 100u, 101u, 1000u}) {
    for (int round = 0; round < 20; ++round) {
      std::vector<double> samples(n);
      // Coarse values on odd rounds: many ties.
      for (auto& x : samples)
        x = round % 2 ? static_cast<double>(rng.next_below(5))
                      : rng.lognormal_median(1000, 1.0);
      std::vector<double> sorted = samples;
      std::sort(sorted.begin(), sorted.end());
      for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        std::vector<double> work = samples;
        const double selected = percentile_select(work, q);
        const double expected = percentile_sorted(sorted, q);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(selected),
                  std::bit_cast<std::uint64_t>(expected))
            << "n=" << n << " q=" << q;
      }
    }
  }
  std::vector<double> none;
  EXPECT_TRUE(std::isnan(percentile_select(none, 0.5)));
}

}  // namespace
}  // namespace saad::stats
