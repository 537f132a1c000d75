// Corruption / fuzz suite for every binary codec: the CRC32C kernels,
// varint, synopsis, trace, and the model image. The contract under test is
// uniform: random byte mutations and truncations must decode to a clean
// error (or skip, for framed traces) — never crash, never OOM, never
// fabricate records. The synopsis decoder is fuzzed in both forms, the
// value and the flat batch (whose failed decode must leave the batch as it
// was), and traces are read both ways, as `detect` reads them (a block at
// a time) and a synopsis at a time. Runs under the asan and ubsan presets
// in CI (ctest -L corruption).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/crc32c.h"
#include "common/rng.h"
#include "core/model.h"
#include "core/trace_io.h"
#include "core/varint.h"
#include "testutil/temp_dir.h"

namespace saad::core {
namespace {

namespace fs = std::filesystem;

std::vector<Synopsis> sample_trace(std::size_t n, std::uint64_t seed) {
  saad::Rng rng(seed);
  std::vector<Synopsis> trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Synopsis s;
    s.host = static_cast<HostId>(rng.next_below(4));
    s.stage = static_cast<StageId>(rng.next_below(8));
    s.uid = i;
    s.start = static_cast<UsTime>(rng.next_below(minutes(5)));
    s.duration = static_cast<UsTime>(rng.next_below(sec(1)));
    LogPointId prev = 0;
    const std::size_t points = 1 + rng.next_below(5);
    for (std::size_t p = 0; p < points; ++p) {
      prev = static_cast<LogPointId>(prev + 1 + rng.next_below(9));
      s.log_points.push_back(
          {prev, static_cast<std::uint32_t>(1 + rng.next_below(9))});
    }
    trace.push_back(std::move(s));
  }
  return trace;
}

void mutate(std::vector<std::uint8_t>& bytes, saad::Rng& rng) {
  if (bytes.empty()) return;
  const std::size_t flips = 1 + rng.next_below(4);
  for (std::size_t f = 0; f < flips; ++f)
    bytes[rng.next_below(bytes.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
}

// ---- crc32c ----------------------------------------------------------------

TEST(Crc32c, KnownAnswerAndChaining) {
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  // The canonical CRC32C check value (iSCSI test vector).
  EXPECT_EQ(crc32c(digits), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
  // Chained halves equal the one-shot sum.
  const auto first = crc32c(std::span(digits, 4));
  EXPECT_EQ(crc32c(std::span(digits + 4, 5), first), crc32c(digits));
  // Any single-bit flip changes the sum.
  auto copy = std::vector<std::uint8_t>(digits, digits + sizeof(digits));
  copy[3] ^= 0x10;
  EXPECT_NE(crc32c(copy), crc32c(digits));
}

TEST(Crc32c, KernelsMatchRfc3720Vectors) {
  // RFC 3720 §B.4 CRC32C examples (as stored little-endian on the wire).
  std::vector<std::uint8_t> zeros(32, 0x00), ones(32, 0xFF), inc(32), dec(32);
  for (std::size_t i = 0; i < 32; ++i) {
    inc[i] = static_cast<std::uint8_t>(i);
    dec[i] = static_cast<std::uint8_t>(31 - i);
  }
  const std::uint8_t scsi_read[48] = {
      0x01, 0xC0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  const auto hardware = crc32c_kernels::hardware();
  for (const auto kernel :
       {crc32c_kernels::Kernel{&crc32c_kernels::table}, hardware}) {
    if (kernel == nullptr) continue;  // no SSE4.2 here: table only
    EXPECT_EQ(kernel(zeros, 0), 0x8A9136AAu);
    EXPECT_EQ(kernel(ones, 0), 0x62A8AB43u);
    EXPECT_EQ(kernel(inc, 0), 0x46DD794Eu);
    EXPECT_EQ(kernel(dec, 0), 0x113FDB5Cu);
    EXPECT_EQ(kernel(std::span(scsi_read), 0), 0xD9963A56u);
  }
}

TEST(Crc32c, HardwareKernelMatchesTableAtEveryLengthAndOffset) {
  const auto hardware = crc32c_kernels::hardware();
  if (hardware == nullptr) GTEST_SKIP() << "no hardware CRC32C kernel";
  saad::Rng rng(20);
  std::vector<std::uint8_t> buf(1100 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len + offset <= buf.size() && len <= 1100;
         ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      const auto seed = static_cast<std::uint32_t>(rng.next_u64());
      ASSERT_EQ(hardware(data, 0), crc32c_kernels::table(data, 0))
          << "offset=" << offset << " len=" << len;
      ASSERT_EQ(hardware(data, seed), crc32c_kernels::table(data, seed))
          << "offset=" << offset << " len=" << len;
      // Chaining: a split anywhere equals the one-shot sum.
      const std::size_t cut = len / 3;
      ASSERT_EQ(hardware(data.subspan(cut), hardware(data.first(cut), seed)),
                crc32c_kernels::table(data, seed))
          << "offset=" << offset << " len=" << len;
    }
  }
}

// ---- varint ----------------------------------------------------------------

TEST(VarintCorruption, TenthByteOverflowRejected) {
  // 9 continuation bytes leave one bit of the u64; a 10th byte above 1
  // encodes bits 65+ which the seed decoder silently dropped.
  std::vector<std::uint8_t> overflow(9, 0xFF);
  overflow.push_back(0x7F);
  std::span<const std::uint8_t> in(overflow);
  std::uint64_t v = 0;
  EXPECT_FALSE(get_varint(in, v));

  std::vector<std::uint8_t> max_ok(9, 0xFF);
  max_ok.push_back(0x01);
  in = max_ok;
  ASSERT_TRUE(get_varint(in, v));
  EXPECT_EQ(v, ~0ull);
  EXPECT_TRUE(in.empty());

  // An 11th byte (continuation set on the 10th) is also malformed.
  std::vector<std::uint8_t> eleven(10, 0xFF);
  eleven.push_back(0x00);
  in = eleven;
  EXPECT_FALSE(get_varint(in, v));
}

TEST(VarintCorruption, EdgeValuesRoundTrip) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull, (1ull << 32) - 1,
        1ull << 32, (1ull << 63) - 1, 1ull << 63, ~0ull}) {
    std::vector<std::uint8_t> buf;
    put_varint(v, buf);
    EXPECT_EQ(buf.size(), varint_size(v));
    std::span<const std::uint8_t> in(buf);
    std::uint64_t decoded = 0;
    ASSERT_TRUE(get_varint(in, decoded)) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(in.empty());
    // Every strict prefix is truncated input.
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
      std::span<const std::uint8_t> prefix(buf.data(), cut);
      EXPECT_FALSE(get_varint(prefix, decoded));
    }
  }
}

TEST(VarintCorruption, RandomBytesNeverCrash) {
  saad::Rng rng(21);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> buf(rng.next_below(16));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    std::span<const std::uint8_t> in(buf);
    std::uint64_t v = 0;
    if (get_varint(in, v)) {
      // Whatever decoded must re-encode to at most the consumed length
      // (overlong-but-in-range encodings are accepted).
      EXPECT_LE(varint_size(v), buf.size() - in.size());
    }
  }
}

// ---- synopsis --------------------------------------------------------------

TEST(SynopsisCorruption, MutatedRecordsDecodeToErrorOrValidRecord) {
  saad::Rng rng(22);
  const auto originals = sample_trace(50, 22);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> buf;
    encode_synopsis(originals[trial % originals.size()], buf);
    mutate(buf, rng);
    std::span<const std::uint8_t> in(buf);
    Synopsis s;
    const bool ok = decode_synopsis(in, s);
    if (ok) {
      // A successful decode must re-encode without crashing and within the
      // codec's own bounds (counts and ids were range-checked).
      std::vector<std::uint8_t> rebuf;
      encode_synopsis(s, rebuf);
      EXPECT_LE(s.log_points.size(), 0x10000u);
    }
    // The batch form agrees, appending the same record or nothing at all.
    SynopsisBatch batch;
    batch.append(originals[(trial + 1) % originals.size()]);
    const SynopsisBatch before = batch;
    std::span<const std::uint8_t> flat_in(buf);
    ASSERT_EQ(decode_synopsis(flat_in, batch), ok) << "trial " << trial;
    if (ok) {
      ASSERT_EQ(batch.size(), 2u);
      Synopsis appended;
      appended.assign(batch[1]);
      EXPECT_EQ(appended, s);
    } else {
      EXPECT_EQ(batch, before) << "trial " << trial;
    }
  }
}

TEST(SynopsisCorruption, TruncationsAlwaysFail) {
  const auto originals = sample_trace(20, 23);
  for (const auto& s : originals) {
    std::vector<std::uint8_t> buf;
    encode_synopsis(s, buf);
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
      std::span<const std::uint8_t> in(buf.data(), cut);
      Synopsis out;
      EXPECT_FALSE(decode_synopsis(in, out));
      SynopsisBatch batch;
      batch.append(s);
      const SynopsisBatch before = batch;
      std::span<const std::uint8_t> flat_in(buf.data(), cut);
      EXPECT_FALSE(decode_synopsis(flat_in, batch));
      EXPECT_EQ(batch, before) << "cut=" << cut;
    }
  }
}

// ---- trace -----------------------------------------------------------------

class TraceV2Corruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest -j runs each TEST_F as its own process against the shared temp
    // dir, so the path must be unique per test or the two fixtures race on
    // it; TempDir bakes suite/test/pid into the directory name.
    path_ = tmp_.path("fuzz_v2.trc");
    trace_ = sample_trace(120, 25);
    TraceWriter::Options options;
    options.block_bytes = 512;
    options.atomic_finalize = false;
    TraceWriter writer(path_, options);
    for (const auto& s : trace_) ASSERT_TRUE(writer.append(s));
    ASSERT_TRUE(writer.finalize());
    pristine_ = read(path_);
    for (const auto& s : trace_) {
      std::vector<std::uint8_t> buf;
      encode_synopsis(s, buf);
      encodings_.insert(buf);
    }
  }
  std::vector<std::uint8_t> read(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(f)),
                                     std::istreambuf_iterator<char>());
  }
  void write(std::span<const std::uint8_t> bytes) {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }

  // True iff `s` is bit-identical to one of the written synopses.
  bool is_genuine(const Synopsis& s) const {
    std::vector<std::uint8_t> buf;
    encode_synopsis(s, buf);
    return encodings_.count(buf) > 0;
  }

  testutil::TempDir tmp_;
  std::string path_;
  std::vector<Synopsis> trace_;
  std::vector<std::uint8_t> pristine_;
  std::set<std::vector<std::uint8_t>> encodings_;
};

TEST_F(TraceV2Corruption, MutationsNeverCrashOrFabricateRecords) {
  saad::Rng rng(26);
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = pristine_;
    mutate(bytes, rng);
    write(bytes);
    TraceReader reader(path_);
    Synopsis s;
    std::size_t recovered = 0;
    while (reader.next(s)) {
      // CRC32C gates every block: damage is skipped, so whatever comes
      // through is a record we actually wrote.
      ASSERT_TRUE(is_genuine(s)) << "trial " << trial;
      ++recovered;
    }
    EXPECT_LE(recovered, trace_.size());
    // Block at a time, the same records come through.
    TraceReader blocks(path_);
    SynopsisBatch block;
    std::size_t recovered_in_blocks = 0;
    while (blocks.next(block)) {
      for (const SynopsisView view : block) {
        s.assign(view);
        ASSERT_TRUE(is_genuine(s)) << "trial " << trial;
      }
      recovered_in_blocks += block.size();
    }
    EXPECT_EQ(recovered_in_blocks, recovered) << "trial " << trial;
    EXPECT_EQ(blocks.stats().synopses, recovered) << "trial " << trial;
  }
}

TEST_F(TraceV2Corruption, EveryTruncationRecoversOnlyGenuineRecords) {
  for (std::size_t cut = 0; cut <= pristine_.size();
       cut += 1 + cut % 13) {  // irregular stride over all offsets
    write(std::span(pristine_.data(), cut));
    TraceReader reader(path_);
    if (cut < 8) {
      EXPECT_FALSE(reader.ok()) << "cut=" << cut;
      continue;
    }
    Synopsis s;
    std::size_t i = 0;
    while (reader.next(s)) {
      ASSERT_LT(i, trace_.size());
      // Truncation must yield an exact prefix, in order.
      ASSERT_EQ(s, trace_[i]) << "cut=" << cut;
      ++i;
    }
    // Block at a time, the same prefix.
    TraceReader blocks(path_);
    SynopsisBatch block;
    std::vector<Synopsis> recovered;
    while (blocks.next(block)) block.copy_to(recovered);
    ASSERT_EQ(recovered.size(), i) << "cut=" << cut;
    for (std::size_t j = 0; j < recovered.size(); ++j)
      ASSERT_EQ(recovered[j], trace_[j]) << "cut=" << cut;
  }
}

// ---- model -----------------------------------------------------------------

std::vector<Synopsis> model_trace(std::size_t n) {
  saad::Rng rng(27);
  std::vector<Synopsis> trace;
  for (std::size_t i = 0; i < n; ++i) {
    Synopsis s;
    s.stage = static_cast<StageId>(rng.next_below(3));
    s.duration = static_cast<UsTime>(rng.lognormal_median(ms(10), 0.2));
    s.log_points = rng.chance(0.01)
                       ? std::vector<LogPointCount>{{1, 1}, {3, 1}}
                       : std::vector<LogPointCount>{{1, 1}, {2, 2}};
    trace.push_back(std::move(s));
  }
  return trace;
}

TEST(ModelCorruption, MutationsNeverCrash) {
  saad::Rng rng(28);
  const OutlierModel model = OutlierModel::train(model_trace(20000));
  std::vector<std::uint8_t> pristine;
  model.save(pristine);
  ASSERT_TRUE(OutlierModel::load(pristine).has_value());
  for (int trial = 0; trial < 500; ++trial) {
    auto bytes = pristine;
    mutate(bytes, rng);
    (void)OutlierModel::load(bytes);  // error or valid — never crash
  }
}

// Hand-built minimal model image following the documented layout, so a
// single field can be poisoned precisely.
std::vector<std::uint8_t> craft_model(std::int64_t duration_threshold) {
  // resize+memcpy instead of insert(): GCC 12's -Wstringop-overflow
  // false-positives on range-insert into an empty vector.
  const char magic[8] = {'S', 'A', 'A', 'D', 'M', 'D', 'L', '1'};
  std::vector<std::uint8_t> out(sizeof(magic));
  std::memcpy(out.data(), magic, sizeof(magic));
  put_double(0.01, out);   // flow_share_threshold
  put_double(0.99, out);   // duration_quantile
  put_varint(5, out);      // kfold_k
  put_double(2.0, out);    // unstable_factor
  put_varint(50, out);     // min_signature_samples
  put_varint(100, out);    // trained_tasks
  put_varint(1, out);      // num_stages
  put_varint(3, out);      //   stage_id
  put_varint(100, out);    //   task_count
  put_double(0.0, out);    //   train_flow_outlier_rate
  put_varint(1, out);      //   num_signatures
  put_varint(1, out);      //     point count
  put_varint(4, out);      //     delta-encoded point
  put_varint(100, out);    //     task_count
  put_double(1.0, out);    //     share
  put_varint(3, out);      //     flags
  put_varint(zigzag(duration_threshold), out);
  put_double(0.0, out);    //     train_perf_outlier_rate
  return out;
}

TEST(ModelCorruption, NegativeDurationThresholdRejected) {
  // Sanity: the crafted image with a sane threshold loads...
  const auto valid = craft_model(ms(5));
  ASSERT_TRUE(OutlierModel::load(valid).has_value());
  // ...and the same image with a negative threshold is corruption.
  const auto poisoned = craft_model(-ms(5));
  EXPECT_FALSE(OutlierModel::load(poisoned).has_value());
}

TEST(ModelCorruption, TrailingGarbageRejected) {
  auto bytes = craft_model(ms(5));
  bytes.push_back(0x00);
  EXPECT_FALSE(OutlierModel::load(bytes).has_value());
}

}  // namespace
}  // namespace saad::core
