#include "core/model.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace saad::core {
namespace {

Synopsis make_synopsis(StageId stage, std::vector<LogPointId> points,
                       UsTime duration, HostId host = 0) {
  Synopsis s;
  s.host = host;
  s.stage = stage;
  s.duration = duration;
  LogPointId prev = 0;
  std::sort(points.begin(), points.end());
  for (auto p : points) {
    if (!s.log_points.empty() && s.log_points.back().point == p) {
      s.log_points.back().count++;
    } else {
      s.log_points.push_back({p, 1});
    }
    prev = p;
  }
  (void)prev;
  return s;
}

/// The trained stats of `sig` in `sm`, or null.
const SignatureStats* trained(const StageModel* sm, const Signature& sig) {
  const SignatureId id = sm->signatures.find(sig);
  return id == kNoSignature ? nullptr : &sm->signatures[id].second;
}

/// A training trace mimicking Fig. 4: 99% normal flow at ~10ms, ~1% slow,
/// 0.1% rare flow with an extra log point.
std::vector<Synopsis> figure4_trace(std::size_t n, saad::Rng& rng) {
  std::vector<Synopsis> trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double dice = rng.next_double();
    if (dice < 0.001) {
      trace.push_back(make_synopsis(0, {1, 2, 3, 4, 5},
                                    static_cast<UsTime>(ms(10))));
    } else {
      const UsTime d =
          static_cast<UsTime>(rng.lognormal_median(ms(10), 0.15));
      trace.push_back(make_synopsis(0, {1, 2, 4, 5}, d));
    }
  }
  return trace;
}

TEST(OutlierModel, RareSignatureIsFlowOutlier) {
  saad::Rng rng(1);
  const auto trace = figure4_trace(20000, rng);
  const OutlierModel model = OutlierModel::train(trace);

  const StageModel* sm = model.stage_model(0);
  ASSERT_NE(sm, nullptr);
  const auto* rare = trained(sm, Signature({1, 2, 3, 4, 5}));
  const auto* common = trained(sm, Signature({1, 2, 4, 5}));
  ASSERT_NE(rare, nullptr);
  ASSERT_NE(common, nullptr);
  EXPECT_TRUE(rare->flow_outlier);
  EXPECT_FALSE(common->flow_outlier);
  EXPECT_NEAR(sm->train_flow_outlier_rate, 0.001, 0.002);
}

TEST(OutlierModel, DurationThresholdNearTrainedQuantile) {
  saad::Rng rng(2);
  const auto trace = figure4_trace(20000, rng);
  const OutlierModel model = OutlierModel::train(trace);
  const StageModel* sm = model.stage_model(0);
  const auto* common = trained(sm, Signature({1, 2, 4, 5}));
  ASSERT_NE(common, nullptr);
  EXPECT_TRUE(common->perf_applicable);
  // p99 of lognormal(median 10ms, sigma .15) ~ 10ms * exp(2.326*.15) ~ 14.2ms.
  EXPECT_NEAR(to_ms(common->duration_threshold), 14.2, 1.5);
  EXPECT_NEAR(common->train_perf_outlier_rate, 0.01, 0.005);
}

TEST(OutlierModel, ClassifyNormalTask) {
  saad::Rng rng(3);
  const OutlierModel model = OutlierModel::train(figure4_trace(20000, rng));
  Feature f;
  f.stage = 0;
  f.signature = Signature({1, 2, 4, 5});
  f.duration = ms(10);
  const auto c = model.classify(f);
  EXPECT_TRUE(c.known_stage);
  EXPECT_FALSE(c.new_signature);
  EXPECT_FALSE(c.flow_outlier);
  EXPECT_TRUE(c.perf_applicable);
  EXPECT_FALSE(c.perf_outlier);
}

TEST(OutlierModel, ClassifySlowTaskAsPerfOutlier) {
  saad::Rng rng(4);
  const OutlierModel model = OutlierModel::train(figure4_trace(20000, rng));
  Feature f;
  f.stage = 0;
  f.signature = Signature({1, 2, 4, 5});
  f.duration = ms(40);
  const auto c = model.classify(f);
  EXPECT_TRUE(c.perf_outlier);
  EXPECT_FALSE(c.flow_outlier);
}

TEST(OutlierModel, ClassifyNewSignature) {
  saad::Rng rng(5);
  const OutlierModel model = OutlierModel::train(figure4_trace(5000, rng));
  Feature f;
  f.stage = 0;
  f.signature = Signature({1, 2});  // premature termination flow
  const auto c = model.classify(f);
  EXPECT_TRUE(c.known_stage);
  EXPECT_TRUE(c.new_signature);
  EXPECT_TRUE(c.flow_outlier);
}

TEST(OutlierModel, ClassifyUnknownStage) {
  saad::Rng rng(6);
  const OutlierModel model = OutlierModel::train(figure4_trace(1000, rng));
  Feature f;
  f.stage = 99;
  const auto c = model.classify(f);
  EXPECT_FALSE(c.known_stage);
  EXPECT_TRUE(c.new_signature);
  EXPECT_TRUE(c.flow_outlier);
}

TEST(OutlierModel, SmallSignatureGroupsNotPerfApplicable) {
  // The rare signature (~0.1% of 20k = ~20 tasks) is below
  // min_signature_samples=50: no duration threshold for it.
  saad::Rng rng(7);
  const OutlierModel model = OutlierModel::train(figure4_trace(20000, rng));
  Feature f;
  f.stage = 0;
  f.signature = Signature({1, 2, 3, 4, 5});
  f.duration = sec(100);
  const auto c = model.classify(f);
  EXPECT_FALSE(c.perf_applicable);
  EXPECT_FALSE(c.perf_outlier);
}

TEST(OutlierModel, UnstableDurationsExcludedByKFold) {
  // Signature whose duration distribution shifts regime during training
  // (first 850 tasks ~1ms, last 150 ~5s): the cross-validated filter must
  // exclude it from performance detection.
  saad::Rng rng(8);
  std::vector<Synopsis> trace;
  for (int i = 0; i < 1000; ++i) {
    const UsTime d = (i >= 850) ? sec(5) + static_cast<UsTime>(rng.uniform(0, 1e6))
                                : ms(1);
    trace.push_back(make_synopsis(1, {1, 2}, d));
  }
  const OutlierModel model = OutlierModel::train(trace);
  const auto* sm = model.stage_model(1);
  const auto* it = trained(sm, Signature({1, 2}));
  ASSERT_NE(it, nullptr);
  EXPECT_FALSE(it->perf_applicable);
}

TEST(OutlierModel, FlowShareThresholdConfigurable) {
  std::vector<Synopsis> trace;
  // 90% sig A, 10% sig B.
  for (int i = 0; i < 900; ++i) trace.push_back(make_synopsis(0, {1}, ms(1)));
  for (int i = 0; i < 100; ++i) trace.push_back(make_synopsis(0, {2}, ms(1)));

  TrainingConfig strict;
  strict.flow_share_threshold = 0.2;  // anything under 20% share is rare
  const OutlierModel m1 = OutlierModel::train(trace, strict);
  EXPECT_TRUE(
      trained(m1.stage_model(0), Signature({2}))->flow_outlier);

  TrainingConfig loose;
  loose.flow_share_threshold = 0.05;
  const OutlierModel m2 = OutlierModel::train(trace, loose);
  EXPECT_FALSE(
      trained(m2.stage_model(0), Signature({2}))->flow_outlier);
}

TEST(OutlierModel, PoolsHostsIntoOneStageModel) {
  std::vector<Synopsis> trace;
  for (int host = 0; host < 4; ++host)
    for (int i = 0; i < 100; ++i)
      trace.push_back(
          make_synopsis(0, {1}, ms(1), static_cast<HostId>(host)));
  const OutlierModel model = OutlierModel::train(trace);
  EXPECT_EQ(model.num_stages(), 1u);
  EXPECT_EQ(model.stage_model(0)->task_count, 400u);
  EXPECT_EQ(model.trained_tasks(), 400u);
}

TEST(OutlierModel, EmptyTraceYieldsEmptyModel) {
  const OutlierModel model = OutlierModel::train({});
  EXPECT_EQ(model.num_stages(), 0u);
  EXPECT_EQ(model.stage_model(0), nullptr);
}

TEST(SignatureTable, IdsFollowSignatureOrderAndFirstRepeatWins) {
  SignatureStats first, second;
  first.task_count = 1;
  second.task_count = 2;
  const SignatureTable table({{Signature({4, 9}), {}},
                              {Signature({1, 2, 3}), first},
                              {Signature(), {}},
                              {Signature({1, 2, 3}), second},
                              {Signature({1, 5}), {}}});
  ASSERT_EQ(table.size(), 4u);
  for (SignatureId id = 1; id < table.size(); ++id)
    EXPECT_LT(table[id - 1].first, table[id].first);
  const SignatureId id = table.find(Signature({1, 2, 3}));
  ASSERT_NE(id, kNoSignature);
  EXPECT_EQ(table[id].second.task_count, 1u);
  EXPECT_EQ(table.find(Signature()), 0u);
  EXPECT_EQ(table.find(Signature({1, 2})), kNoSignature);
  EXPECT_EQ(SignatureTable().find(Signature({1})), kNoSignature);
}

TEST(SignatureTable, SynopsisPointListsFindTheirSignature) {
  std::vector<SignatureTable::Entry> entries;
  for (LogPointId base = 0; base < 200; ++base)
    entries.push_back({Signature({base, static_cast<LogPointId>(base + 7)}), {}});
  const SignatureTable table(std::move(entries));
  for (LogPointId base = 0; base < 200; ++base) {
    const auto expected = table.find(
        Signature({base, static_cast<LogPointId>(base + 7)}));
    ASSERT_NE(expected, kNoSignature);
    const auto b = static_cast<LogPointId>(base + 7);
    // Counts do not matter; order and repeats fold into the point set.
    const std::vector<LogPointCount> sorted = {{base, 3}, {b, 1}};
    const std::vector<LogPointCount> reversed = {{b, 1}, {base, 3}};
    const std::vector<LogPointCount> repeated = {{base, 1}, {base, 2}, {b, 1}};
    EXPECT_EQ(table.find(sorted), expected);
    EXPECT_EQ(table.find(reversed), expected);
    EXPECT_EQ(table.find(repeated), expected);
    const std::vector<LogPointCount> subset = {{base, 1}};
    EXPECT_EQ(table.find(subset), kNoSignature);
  }
}

}  // namespace
}  // namespace saad::core
