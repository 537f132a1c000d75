#include "core/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "common/rng.h"
#include "stats/descriptive.h"
#include "stats/kfold.h"

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

// ---- ModelTrainer against the sorting reference ---------------------------

/// What training yields for one stage, keyed by signature.
struct ReferenceStage {
  std::uint64_t task_count = 0;
  double train_flow_outlier_rate = 0.0;
  std::map<Signature, SignatureStats> signatures;
};

/// The stability filter with an index vector per fold and a full sort of
/// every fold's training set.
stats::KFoldStability reference_kfold(const std::vector<double>& samples,
                                      std::size_t k, double quantile,
                                      double unstable_factor) {
  stats::KFoldStability out;
  if (k < 2 || samples.size() < k) {
    out.stable = false;
    out.mean_heldout_outlier_rate = 1.0;
    return out;
  }
  std::vector<std::vector<std::size_t>> folds(k);
  for (std::size_t f = 0; f < k; ++f)
    for (std::size_t i = f * samples.size() / k;
         i < (f + 1) * samples.size() / k; ++i)
      folds[f].push_back(i);
  double rate_sum = 0.0;
  for (std::size_t f = 0; f < k; ++f) {
    std::vector<double> train;
    for (std::size_t g = 0; g < k; ++g)
      if (g != f)
        for (auto i : folds[g]) train.push_back(samples[i]);
    std::sort(train.begin(), train.end());
    const double threshold = stats::percentile_sorted(train, quantile);
    std::size_t above = 0;
    for (auto i : folds[f])
      if (samples[i] > threshold) ++above;
    rate_sum +=
        static_cast<double>(above) / static_cast<double>(folds[f].size());
  }
  out.mean_heldout_outlier_rate = rate_sum / static_cast<double>(k);
  out.stable =
      out.mean_heldout_outlier_rate <= unstable_factor * (1.0 - quantile);
  return out;
}

/// Training by grouping whole Signatures and sorting every group.
std::map<StageId, ReferenceStage> reference_train(
    const std::vector<Synopsis>& trace, const TrainingConfig& config) {
  std::map<StageId, std::map<Signature, std::vector<double>>> groups;
  for (const auto& s : trace)
    groups[s.stage][Signature::from(s)].push_back(
        static_cast<double>(s.duration));
  std::map<StageId, ReferenceStage> out;
  for (const auto& [stage, sigs] : groups) {
    ReferenceStage& rs = out[stage];
    for (const auto& [sig, durations] : sigs) rs.task_count += durations.size();
    std::uint64_t flow_outlier_tasks = 0;
    for (const auto& [sig, durations] : sigs) {
      SignatureStats ss;
      ss.task_count = durations.size();
      ss.share = static_cast<double>(ss.task_count) /
                 static_cast<double>(rs.task_count);
      ss.flow_outlier = ss.share < config.flow_share_threshold;
      if (ss.flow_outlier) flow_outlier_tasks += ss.task_count;
      if (ss.task_count >= config.min_signature_samples) {
        std::vector<double> sorted = durations;
        std::sort(sorted.begin(), sorted.end());
        const double threshold =
            stats::percentile_sorted(sorted, config.duration_quantile);
        ss.duration_threshold = static_cast<UsTime>(threshold);
        std::uint64_t above = 0;
        for (double d : sorted)
          if (d > threshold) ++above;
        ss.train_perf_outlier_rate =
            static_cast<double>(above) / static_cast<double>(ss.task_count);
        ss.perf_applicable =
            config.kfold_k < 2 ||
            reference_kfold(durations, config.kfold_k,
                            config.duration_quantile, config.unstable_factor)
                .stable;
      }
      rs.signatures.emplace(sig, ss);
    }
    rs.train_flow_outlier_rate = static_cast<double>(flow_outlier_tasks) /
                                 static_cast<double>(rs.task_count);
  }
  return out;
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void expect_same_model(const OutlierModel& model,
                       const std::map<StageId, ReferenceStage>& reference) {
  ASSERT_EQ(model.num_stages(), reference.size());
  std::uint64_t tasks = 0;
  for (const auto& [stage, rs] : reference) {
    SCOPED_TRACE("stage " + std::to_string(stage));
    const StageModel* sm = model.stage_model(stage);
    ASSERT_NE(sm, nullptr);
    EXPECT_EQ(sm->stage, stage);
    EXPECT_EQ(sm->task_count, rs.task_count);
    EXPECT_EQ(bits(sm->train_flow_outlier_rate),
              bits(rs.train_flow_outlier_rate));
    tasks += rs.task_count;
    ASSERT_EQ(sm->signatures.size(), rs.signatures.size());
    auto want = rs.signatures.begin();
    for (const auto& [sig, got] : sm->signatures) {
      SCOPED_TRACE("signature " + sig.to_string());
      ASSERT_EQ(sig, want->first);
      const SignatureStats& ref = want->second;
      EXPECT_EQ(got.task_count, ref.task_count);
      EXPECT_EQ(bits(got.share), bits(ref.share));
      EXPECT_EQ(got.flow_outlier, ref.flow_outlier);
      EXPECT_EQ(got.perf_applicable, ref.perf_applicable);
      EXPECT_EQ(got.duration_threshold, ref.duration_threshold);
      EXPECT_EQ(bits(got.train_perf_outlier_rate),
                bits(ref.train_perf_outlier_rate));
      ++want;
    }
  }
  EXPECT_EQ(model.trained_tasks(), tasks);
}

/// Four stages of up to twelve signatures each with skewed shares, so some
/// groups fall below min_signature_samples and some below k. Point lists
/// come shuffled, with repeats, a third of the time. Durations are
/// lognormal, coarse (many ties), constant, or shift regime halfway.
std::vector<Synopsis> trainer_trace(std::uint64_t seed, std::size_t n) {
  saad::Rng rng(seed);
  const StageId stages[] = {3, 0, 41, 7};
  std::vector<Synopsis> trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Synopsis s;
    s.host = static_cast<HostId>(rng.next_below(5));
    s.stage = stages[rng.next_below(4)];
    s.uid = i;
    s.start = static_cast<UsTime>(i) * 100;
    // Signature v of the stage: share halves with each step of v.
    std::uint64_t v = 0;
    while (v < 11 && rng.chance(0.5)) ++v;
    std::vector<LogPointId> points = {static_cast<LogPointId>(s.stage * 10)};
    for (std::uint64_t b = 0; b < 4; ++b)
      if ((v + 1) & (1u << b))
        points.push_back(static_cast<LogPointId>(s.stage * 10 + 1 + b));
    if (rng.chance(0.33)) {
      for (std::size_t j = points.size(); j > 1; --j)
        std::swap(points[j - 1], points[rng.next_below(j)]);
      points.push_back(points[rng.next_below(points.size())]);
    }
    for (LogPointId p : points)
      s.log_points.push_back({p, static_cast<std::uint32_t>(1 + rng.next_below(3))});
    switch (v % 4) {
      case 0:
        s.duration = static_cast<UsTime>(rng.lognormal_median(ms(5), 0.3));
        break;
      case 1:
        s.duration = ms(1) * static_cast<UsTime>(1 + rng.next_below(4));
        break;
      case 2:
        s.duration = ms(2);
        break;
      default:
        s.duration = i < n / 2 ? ms(1) : sec(1) + static_cast<UsTime>(i);
    }
    trace.push_back(std::move(s));
  }
  return trace;
}

TEST(ModelTrainer, MatchesTheSortingReferenceBitForBit) {
  std::vector<TrainingConfig> configs(6);
  configs[1].kfold_k = 0;
  configs[2].kfold_k = 1;
  configs[3].min_signature_samples = 1;  // groups smaller than k
  configs[4].duration_quantile = 1.0;    // the maximum
  configs[4].min_signature_samples = 3;
  configs[5].duration_quantile = 0.5;
  configs[5].kfold_k = 3;
  configs[5].flow_share_threshold = 0.2;
  {
    // The trace covers every branch of training: groups below k, groups
    // below min_signature_samples, and groups the k-fold filter keeps and
    // drops.
    std::size_t below_k = 0, below_min = 0, stable = 0, unstable = 0;
    for (const auto& [stage, rs] : reference_train(trainer_trace(1, 12000), {}))
      for (const auto& [sig, ss] : rs.signatures) {
        below_k += ss.task_count < 5;
        below_min += ss.task_count >= 5 && ss.task_count < 50;
        stable += ss.perf_applicable;
        unstable += ss.task_count >= 50 && !ss.perf_applicable;
      }
    EXPECT_GT(below_k, 0u);
    EXPECT_GT(below_min, 0u);
    EXPECT_GT(stable, 0u);
    EXPECT_GT(unstable, 0u);
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto trace = trainer_trace(seed, 12000);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " config " +
                   std::to_string(c));
      const auto reference = reference_train(trace, configs[c]);
      expect_same_model(OutlierModel::train(trace, configs[c]), reference);

      // Fed as flat batches of uneven sizes, the trainer builds the same.
      ModelTrainer trainer;
      SynopsisBatch batch;
      saad::Rng cut(seed);
      for (std::size_t i = 0; i < trace.size();) {
        batch.clear();
        const std::size_t end =
            std::min(trace.size(), i + 1 + cut.next_below(700));
        for (; i < end; ++i) batch.append(trace[i]);
        trainer.add(batch);
      }
      expect_same_model(trainer.finish(configs[c]), reference);
    }
  }
}

TEST(OutlierModel, SavedBytesDoNotDependOnStageOrder) {
  const auto trace = trainer_trace(9, 8000);
  // The same synopses with the stages met in the opposite order; each
  // stage's own tasks keep their order, which the k-fold filter reads.
  std::vector<Synopsis> reordered = trace;
  std::stable_sort(reordered.begin(), reordered.end(),
                   [](const Synopsis& a, const Synopsis& b) {
                     return a.stage > b.stage;
                   });
  std::vector<std::uint8_t> a, b, again;
  OutlierModel::train(trace).save(a);
  OutlierModel::train(reordered).save(b);
  EXPECT_EQ(a, b);
  const auto loaded = OutlierModel::load(a);
  ASSERT_TRUE(loaded.has_value());
  loaded->save(again);
  EXPECT_EQ(again, a);
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
