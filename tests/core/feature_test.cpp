#include "core/feature.h"

#include <gtest/gtest.h>

namespace saad::core {
namespace {

TEST(Signature, FromSynopsisKeepsDistinctPointsOnly) {
  Synopsis s;
  s.log_points = {{1, 1}, {2, 57}, {9, 3}};
  const Signature sig = Signature::from(s);
  EXPECT_EQ(sig.points(), (std::vector<LogPointId>{1, 2, 9}));
}

TEST(Signature, ConstructorSortsAndDeduplicates) {
  const Signature sig({9, 1, 9, 2, 1});
  EXPECT_EQ(sig.points(), (std::vector<LogPointId>{1, 2, 9}));
  EXPECT_EQ(sig.size(), 3u);
}

TEST(Signature, EqualityIsSetEquality) {
  EXPECT_EQ(Signature({1, 2, 3}), Signature({3, 2, 1}));
  EXPECT_NE(Signature({1, 2}), Signature({1, 2, 3}));
  // "The slightest difference in signature" distinguishes flows.
  EXPECT_NE(Signature({1, 2, 4}), Signature({1, 2, 3}));
}

TEST(Signature, FrequencyDoesNotAffectSignature) {
  // A task hitting L2 once and a task hitting L2 500 times have the same
  // signature (set semantics, paper §3.3.1).
  Synopsis once, many;
  once.log_points = {{1, 1}, {2, 1}};
  many.log_points = {{1, 1}, {2, 500}};
  EXPECT_EQ(Signature::from(once), Signature::from(many));
}

TEST(Signature, Contains) {
  const Signature sig({3, 5, 7});
  EXPECT_TRUE(sig.contains(5));
  EXPECT_FALSE(sig.contains(4));
  EXPECT_FALSE(Signature().contains(0));
}

TEST(Signature, ToString) {
  EXPECT_EQ(Signature({2, 1}).to_string(), "{1,2}");
  EXPECT_EQ(Signature().to_string(), "{}");
}

TEST(Signature, Ordering) {
  EXPECT_LT(Signature({1}), Signature({2}));
  EXPECT_LT(Signature({1}), Signature({1, 2}));
}

TEST(Feature, MakeFeatureCopiesFields) {
  Synopsis s;
  s.host = 2;
  s.stage = 5;
  s.uid = 77;
  s.start = 1000;
  s.duration = 333;
  s.log_points = {{4, 9}};
  const Feature f = make_feature(s);
  EXPECT_EQ(f.host, 2);
  EXPECT_EQ(f.stage, 5);
  EXPECT_EQ(f.uid, 77u);
  EXPECT_EQ(f.start, 1000);
  EXPECT_EQ(f.duration, 333);
  EXPECT_EQ(f.signature, Signature({4}));
}

}  // namespace
}  // namespace saad::core
