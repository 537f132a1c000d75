#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/model.h"

namespace saad::core {
namespace {

std::vector<Synopsis> sample_trace(std::size_t n, saad::Rng& rng) {
  std::vector<Synopsis> trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Synopsis s;
    s.stage = static_cast<StageId>(rng.next_below(3));
    s.duration = static_cast<UsTime>(rng.lognormal_median(ms(10), 0.2));
    const bool rare = rng.chance(0.005);
    s.log_points = rare ? std::vector<LogPointCount>{{1, 1}, {2, 1}, {3, 1}}
                        : std::vector<LogPointCount>{{1, 1}, {2, 5}, {4, 1}};
    trace.push_back(std::move(s));
  }
  return trace;
}

TEST(ModelIo, RoundTripPreservesClassification) {
  saad::Rng rng(1);
  const auto trace = sample_trace(30000, rng);
  const OutlierModel original = OutlierModel::train(trace);

  std::vector<std::uint8_t> bytes;
  original.save(bytes);
  EXPECT_GT(bytes.size(), 16u);

  const auto loaded = OutlierModel::load(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_stages(), original.num_stages());
  EXPECT_EQ(loaded->trained_tasks(), original.trained_tasks());

  // Every training task classifies identically under both models.
  saad::Rng rng2(2);
  for (const auto& synopsis : sample_trace(2000, rng2)) {
    const Feature f = make_feature(synopsis);
    const auto a = original.classify(f);
    const auto b = loaded->classify(f);
    ASSERT_EQ(a.known_stage, b.known_stage);
    ASSERT_EQ(a.new_signature, b.new_signature);
    ASSERT_EQ(a.flow_outlier, b.flow_outlier);
    ASSERT_EQ(a.perf_applicable, b.perf_applicable);
    ASSERT_EQ(a.perf_outlier, b.perf_outlier);
  }
}

TEST(ModelIo, RoundTripPreservesConfigAndStats) {
  saad::Rng rng(3);
  TrainingConfig config;
  config.flow_share_threshold = 0.02;
  config.duration_quantile = 0.95;
  config.kfold_k = 7;
  config.unstable_factor = 3.5;
  config.min_signature_samples = 123;
  const OutlierModel original =
      OutlierModel::train(sample_trace(10000, rng), config);

  std::vector<std::uint8_t> bytes;
  original.save(bytes);
  const auto loaded = OutlierModel::load(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(loaded->config().flow_share_threshold, 0.02);
  EXPECT_DOUBLE_EQ(loaded->config().duration_quantile, 0.95);
  EXPECT_EQ(loaded->config().kfold_k, 7u);
  EXPECT_DOUBLE_EQ(loaded->config().unstable_factor, 3.5);
  EXPECT_EQ(loaded->config().min_signature_samples, 123u);

  const auto* sm = loaded->stage_model(0);
  const auto* sm_orig = original.stage_model(0);
  ASSERT_NE(sm, nullptr);
  ASSERT_NE(sm_orig, nullptr);
  EXPECT_EQ(sm->task_count, sm_orig->task_count);
  EXPECT_DOUBLE_EQ(sm->train_flow_outlier_rate,
                   sm_orig->train_flow_outlier_rate);
  EXPECT_EQ(sm->signatures.size(), sm_orig->signatures.size());
  for (const auto& [sig, ss] : sm_orig->signatures) {
    const SignatureId id = sm->signatures.find(sig);
    ASSERT_NE(id, kNoSignature);
    const SignatureStats& loaded_ss = sm->signatures[id].second;
    EXPECT_EQ(loaded_ss.task_count, ss.task_count);
    EXPECT_EQ(loaded_ss.duration_threshold, ss.duration_threshold);
    EXPECT_DOUBLE_EQ(loaded_ss.train_perf_outlier_rate,
                     ss.train_perf_outlier_rate);
  }
}

TEST(ModelIo, EmptyModelRoundTrips) {
  const OutlierModel empty = OutlierModel::train({});
  std::vector<std::uint8_t> bytes;
  empty.save(bytes);
  const auto loaded = OutlierModel::load(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_stages(), 0u);
}

TEST(ModelIo, RejectsBadMagic) {
  std::vector<std::uint8_t> junk = {'n', 'o', 't', 'a', 'm', 'o', 'd', 'l'};
  EXPECT_FALSE(OutlierModel::load(junk).has_value());
  EXPECT_FALSE(OutlierModel::load({}).has_value());
}

TEST(ModelIo, RejectsTruncation) {
  saad::Rng rng(4);
  const OutlierModel model = OutlierModel::train(sample_trace(5000, rng));
  std::vector<std::uint8_t> bytes;
  model.save(bytes);
  // Any strict prefix must fail to parse (never crash).
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_FALSE(OutlierModel::load(prefix).has_value()) << "cut=" << cut;
  }
}

TEST(ModelIo, RejectsTrailingGarbage) {
  saad::Rng rng(6);
  const OutlierModel model = OutlierModel::train(sample_trace(5000, rng));
  std::vector<std::uint8_t> bytes;
  model.save(bytes);
  ASSERT_TRUE(OutlierModel::load(bytes).has_value());
  // A single appended byte means the input is not a model image.
  for (const std::uint8_t extra : {0x00, 0x01, 0xFF}) {
    auto padded = bytes;
    padded.push_back(extra);
    EXPECT_FALSE(OutlierModel::load(padded).has_value());
  }
  // Nor is a model concatenated with itself.
  auto doubled = bytes;
  doubled.insert(doubled.end(), bytes.begin(), bytes.end());
  EXPECT_FALSE(OutlierModel::load(doubled).has_value());
}

TEST(ModelIo, FuzzGarbageDoesNotCrash) {
  saad::Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> junk(8 + rng.next_below(128));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    // Sometimes start with the real magic so deeper paths get fuzzed too.
    if (trial % 3 == 0) {
      const char magic[8] = {'S', 'A', 'A', 'D', 'M', 'D', 'L', '1'};
      std::copy(magic, magic + 8, junk.begin());
    }
    (void)OutlierModel::load(junk);
  }
}

}  // namespace
}  // namespace saad::core
