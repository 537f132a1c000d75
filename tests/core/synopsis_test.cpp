#include "core/synopsis.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace saad::core {
namespace {

Synopsis sample_synopsis() {
  Synopsis s;
  s.host = 3;
  s.stage = 12;
  s.uid = 123456789;
  s.start = 42'000'000;
  s.duration = 10'500;
  s.log_points = {{1, 1}, {2, 57}, {9, 1}, {100, 3}};
  return s;
}

TEST(Synopsis, RoundTripPreservesEverything) {
  const Synopsis original = sample_synopsis();
  std::vector<std::uint8_t> buf;
  const std::size_t written = encode_synopsis(original, buf);
  EXPECT_EQ(written, buf.size());
  EXPECT_EQ(written, encoded_size(original));

  std::span<const std::uint8_t> in(buf);
  Synopsis decoded;
  ASSERT_TRUE(decode_synopsis(in, decoded));
  EXPECT_EQ(decoded, original);
  EXPECT_TRUE(in.empty());
}

TEST(Synopsis, TypicalSizeIsTensOfBytes) {
  // Paper: synopses average ~48 bytes. A typical task (5 distinct points,
  // small counts) must encode well under 64 bytes.
  const Synopsis s = sample_synopsis();
  EXPECT_LT(encoded_size(s), 64u);
  EXPECT_GT(encoded_size(s), 8u);
}

TEST(Synopsis, EmptyLogPoints) {
  Synopsis s;
  s.host = 0;
  s.stage = 1;
  s.uid = 7;
  std::vector<std::uint8_t> buf;
  encode_synopsis(s, buf);
  std::span<const std::uint8_t> in(buf);
  Synopsis out;
  ASSERT_TRUE(decode_synopsis(in, out));
  EXPECT_EQ(out, s);
}

TEST(Synopsis, NegativeDurationSurvivesZigzag) {
  Synopsis s = sample_synopsis();
  s.duration = -250;
  std::vector<std::uint8_t> buf;
  encode_synopsis(s, buf);
  std::span<const std::uint8_t> in(buf);
  Synopsis out;
  ASSERT_TRUE(decode_synopsis(in, out));
  EXPECT_EQ(out.duration, -250);
}

TEST(Synopsis, MultipleRecordsStreamBackToBack) {
  std::vector<std::uint8_t> buf;
  Synopsis a = sample_synopsis();
  Synopsis b = sample_synopsis();
  b.uid = 999;
  b.log_points = {{4, 2}};
  encode_synopsis(a, buf);
  encode_synopsis(b, buf);

  std::span<const std::uint8_t> in(buf);
  Synopsis out1, out2;
  ASSERT_TRUE(decode_synopsis(in, out1));
  ASSERT_TRUE(decode_synopsis(in, out2));
  EXPECT_EQ(out1, a);
  EXPECT_EQ(out2, b);
  EXPECT_TRUE(in.empty());
}

TEST(Synopsis, TruncatedInputFailsCleanly) {
  std::vector<std::uint8_t> buf;
  encode_synopsis(sample_synopsis(), buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    std::span<const std::uint8_t> in(buf.data(), cut);
    Synopsis out;
    EXPECT_FALSE(decode_synopsis(in, out)) << "cut=" << cut;
  }
}

TEST(Synopsis, GarbageInputDoesNotCrash) {
  saad::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    std::span<const std::uint8_t> in(junk);
    Synopsis out;
    decode_synopsis(in, out);  // must not crash; result value irrelevant
  }
}

TEST(Synopsis, RandomRoundTripProperty) {
  saad::Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    Synopsis s;
    s.host = static_cast<HostId>(rng.next_below(16));
    s.stage = static_cast<StageId>(rng.next_below(100));
    s.uid = rng.next_u64() >> 1;
    s.start = static_cast<UsTime>(rng.next_below(1'000'000'000));
    s.duration = static_cast<UsTime>(rng.next_below(100'000'000));
    const std::size_t n = rng.next_below(20);
    LogPointId prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      prev = static_cast<LogPointId>(prev + 1 + rng.next_below(50));
      s.log_points.push_back(
          {prev, static_cast<std::uint32_t>(1 + rng.next_below(1000))});
    }
    std::vector<std::uint8_t> buf;
    encode_synopsis(s, buf);
    std::span<const std::uint8_t> in(buf);
    Synopsis out;
    ASSERT_TRUE(decode_synopsis(in, out));
    ASSERT_EQ(out, s);
  }
}

TEST(SynopsisBatch, RecordsKeepTheirPointsThroughAppendAndTruncate) {
  Synopsis empty = sample_synopsis();
  empty.log_points.clear();
  Synopsis other = sample_synopsis();
  other.uid = 7;
  other.log_points = {{4, 2}};
  const std::vector<Synopsis> values = {sample_synopsis(), empty, other};
  SynopsisBatch batch;
  for (const auto& s : values) batch.append(s);
  ASSERT_EQ(batch.size(), 3u);
  std::vector<Synopsis> out;
  batch.copy_to(out);
  EXPECT_EQ(out, values);
  std::size_t i = 0;
  for (const SynopsisView view : batch) {  // iteration and indexing agree
    Synopsis s;
    s.assign(view);
    EXPECT_EQ(s, values[i]);
    s.assign(batch[i]);
    EXPECT_EQ(s, values[i]);
    ++i;
  }
  EXPECT_EQ(i, 3u);

  // Appending a batch's tail re-bases its records onto the pool's end.
  SynopsisBatch tail;
  tail.append(other);
  tail.append(batch, 1);
  out.clear();
  tail.copy_to(out);
  EXPECT_EQ(out, (std::vector<Synopsis>{other, empty, other}));

  batch.truncate(1);  // drops the records and their points
  batch.append(other);
  out.clear();
  batch.copy_to(out);
  EXPECT_EQ(out, (std::vector<Synopsis>{values[0], other}));
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch, SynopsisBatch());
}

TEST(SynopsisBatch, DecodeAppendsOrLeavesTheBatchAsItWas) {
  std::vector<std::uint8_t> buf;
  encode_synopsis(sample_synopsis(), buf);
  SynopsisBatch batch;
  batch.append(sample_synopsis());
  const SynopsisBatch before = batch;
  std::span<const std::uint8_t> cut(buf.data(), buf.size() - 1);
  EXPECT_FALSE(decode_synopsis(cut, batch));
  EXPECT_EQ(batch, before);
  std::span<const std::uint8_t> in(buf);
  ASSERT_TRUE(decode_synopsis(in, batch));
  EXPECT_TRUE(in.empty());
  std::vector<Synopsis> out;
  batch.copy_to(out);
  EXPECT_EQ(out, (std::vector<Synopsis>{sample_synopsis(), sample_synopsis()}));
}

}  // namespace
}  // namespace saad::core
