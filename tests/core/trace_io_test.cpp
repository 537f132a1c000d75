#include "core/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "testutil/temp_dir.h"

namespace saad::core {
namespace {

namespace fs = std::filesystem;

std::vector<Synopsis> sample_trace(std::size_t n) {
  saad::Rng rng(11);
  std::vector<Synopsis> trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Synopsis s;
    s.host = static_cast<HostId>(rng.next_below(4));
    s.stage = static_cast<StageId>(rng.next_below(12));
    s.uid = i + 1;
    s.start = static_cast<UsTime>(rng.next_below(minutes(30)));
    s.duration = static_cast<UsTime>(rng.next_below(sec(1)));
    LogPointId prev = 0;
    const std::size_t points = 1 + rng.next_below(6);
    for (std::size_t p = 0; p < points; ++p) {
      prev = static_cast<LogPointId>(prev + 1 + rng.next_below(10));
      s.log_points.push_back(
          {prev, static_cast<std::uint32_t>(1 + rng.next_below(20))});
    }
    trace.push_back(std::move(s));
  }
  return trace;
}

std::string temp_path(const char* name) {
  // Process-unique scratch dir: ctest -j runs each test as its own process,
  // so literal names under the shared temp root would race across suites.
  return testutil::scratch_path(name);
}

void write_bytes(const std::string& path,
                 std::span<const std::uint8_t> bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(f)),
                                   std::istreambuf_iterator<char>());
}

std::vector<Synopsis> drain(TraceReader& reader) {
  std::vector<Synopsis> out;
  Synopsis s;
  while (reader.next(s)) out.push_back(std::move(s));
  return out;
}

// ---- round trips -----------------------------------------------------------

TEST(TraceIo, EncodeDecodeRoundTrip) {
  // next() refills one Synopsis in place: point lists that shrink and grow
  // from record to record must come back exact, across block boundaries.
  const auto path = temp_path("saad_reuse_roundtrip.trc");
  auto trace = sample_trace(500);
  for (std::size_t i = 0; i < trace.size(); i += 7) trace[i].log_points.clear();
  TraceWriter::Options options;
  options.block_bytes = 512;
  {
    TraceWriter writer(path, options);
    for (const auto& s : trace) ASSERT_TRUE(writer.append(s));
    ASSERT_TRUE(writer.finalize());
  }
  TraceReader reader(path);
  ASSERT_TRUE(reader.ok());
  Synopsis s;
  std::size_t i = 0;
  while (reader.next(s)) {
    ASSERT_LT(i, trace.size());
    ASSERT_EQ(s, trace[i]) << "record " << i;
    ++i;
  }
  EXPECT_EQ(i, trace.size());
  EXPECT_EQ(reader.stats().synopses, trace.size());
  EXPECT_EQ(reader.stats().bytes_discarded, 0u);
  EXPECT_FALSE(reader.stats().truncated_tail);
  fs::remove(path);
}

TEST(TraceIo, BlocksAreHandedOutWholeAndMixWithSingleReads) {
  // next(SynopsisBatch&) hands out a block per call; after next(Synopsis&)
  // took part of a block, it hands out the rest of that block.
  const auto path = temp_path("saad_blocks_roundtrip.trc");
  const auto trace = sample_trace(500);
  TraceWriter::Options options;
  options.block_bytes = 512;
  {
    TraceWriter writer(path, options);
    for (const auto& s : trace) ASSERT_TRUE(writer.append(s));
    ASSERT_TRUE(writer.finalize());
  }
  TraceReader reader(path);
  ASSERT_TRUE(reader.ok());
  std::vector<Synopsis> read;
  Synopsis s;
  ASSERT_TRUE(reader.next(s));
  read.push_back(s);
  SynopsisBatch block;
  std::size_t calls = 0;
  while (reader.next(block)) {
    ++calls;
    block.copy_to(read);
  }
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(read, trace);
  EXPECT_EQ(calls, reader.stats().blocks_total);
  EXPECT_GT(calls, 10u);
  EXPECT_EQ(reader.stats().synopses, trace.size());
  fs::remove(path);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  const auto path = temp_path("saad_empty.trc");
  ASSERT_TRUE(write_trace_file(path, {}));
  const auto loaded = read_trace_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
  fs::remove(path);
}

TEST(TraceIo, RejectsBadMagic) {
  const auto path = temp_path("saad_bogus.trc");
  write_bytes(path, std::vector<std::uint8_t>{'b', 'o', 'g', 'u', 's', '!',
                                              '!', '!'});
  TraceReader reader(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.version(), 0);
  EXPECT_FALSE(read_trace_file(path).has_value());
  write_bytes(path, std::vector<std::uint8_t>{});
  EXPECT_FALSE(read_trace_file(path).has_value());
  fs::remove(path);
}

// ---- writer/reader ---------------------------------------------------------

TEST(TraceV2, WriterReaderRoundTripAcrossManyBlocks) {
  const auto path = temp_path("saad_v2_roundtrip.trc");
  const auto trace = sample_trace(500);
  TraceWriter::Options options;
  options.block_bytes = 1024;  // force many blocks
  {
    TraceWriter writer(path, options);
    ASSERT_TRUE(writer.ok());
    for (const auto& s : trace) ASSERT_TRUE(writer.append(s));
    ASSERT_TRUE(writer.finalize());
    EXPECT_EQ(writer.synopses_written(), trace.size());
    EXPECT_GT(writer.blocks_written(), 5u);
    EXPECT_EQ(writer.bytes_written(), fs::file_size(path));
  }
  TraceReader reader(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.version(), 2);
  const auto loaded = drain(reader);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i)
    ASSERT_EQ(loaded[i], trace[i]) << "record " << i;
  EXPECT_EQ(reader.stats().blocks_corrupt, 0u);
  EXPECT_EQ(reader.stats().bytes_discarded, 0u);
  EXPECT_FALSE(reader.stats().truncated_tail);
  // O(one block) memory: the reader never buffered more than one framed
  // block (payload cap + one oversized record + 16-byte header).
  EXPECT_LT(reader.max_buffered_bytes(), 2 * options.block_bytes);
  fs::remove(path);
}

TEST(TraceV2, TornTailRecoversEveryFlushedBlock) {
  const auto path = temp_path("saad_v2_torn.trc");
  const auto trace = sample_trace(200);
  // Record the (byte offset, records so far) boundary after every flush so
  // each truncation point has an exact expected recovery.
  std::vector<std::pair<std::uint64_t, std::size_t>> boundaries;
  {
    TraceWriter::Options options;
    options.block_bytes = 1 << 20;  // seal blocks only via flush()
    options.atomic_finalize = false;
    TraceWriter writer(path, options);
    ASSERT_TRUE(writer.ok());
    boundaries.emplace_back(writer.bytes_written(), 0);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_TRUE(writer.append(trace[i]));
      if ((i + 1) % 10 == 0) {
        ASSERT_TRUE(writer.flush());
        boundaries.emplace_back(writer.bytes_written(), i + 1);
      }
    }
    ASSERT_TRUE(writer.finalize());
  }
  const auto bytes = read_bytes(path);
  ASSERT_EQ(bytes.size(), boundaries.back().first);

  const auto torn = temp_path("saad_v2_torn_cut.trc");
  for (std::size_t cut = 8; cut <= bytes.size(); cut += 7) {
    write_bytes(torn, std::span(bytes.data(), cut));
    // Every fully-flushed block before the cut must come back bit-identical.
    std::size_t expected = 0;
    for (const auto& [offset, records] : boundaries)
      if (offset <= cut) expected = records;
    TraceReader reader(torn);
    ASSERT_TRUE(reader.ok()) << "cut=" << cut;
    const auto recovered = drain(reader);
    ASSERT_EQ(recovered.size(), expected) << "cut=" << cut;
    for (std::size_t i = 0; i < expected; ++i)
      ASSERT_EQ(recovered[i], trace[i]) << "cut=" << cut << " record " << i;
    EXPECT_EQ(reader.stats().blocks_corrupt, 0u) << "cut=" << cut;
  }
  fs::remove(path);
  fs::remove(torn);
}

TEST(TraceV2, CorruptBlockIsSkippedAndCounted) {
  const auto path = temp_path("saad_v2_corrupt.trc");
  const auto trace = sample_trace(30);
  std::vector<std::uint64_t> block_starts;
  {
    TraceWriter::Options options;
    options.block_bytes = 1 << 20;
    options.atomic_finalize = false;
    TraceWriter writer(path, options);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      block_starts.push_back(writer.bytes_written());
      ASSERT_TRUE(writer.append(trace[i]));
      if ((i + 1) % 10 == 0) {
        ASSERT_TRUE(writer.flush());
      }
    }
    ASSERT_TRUE(writer.finalize());
  }
  auto bytes = read_bytes(path);
  // Flip one payload byte inside the middle block (header is 16 bytes).
  bytes[block_starts[10] + 16 + 5] ^= 0xFF;
  write_bytes(path, bytes);

  TraceReader reader(path);
  const auto recovered = drain(reader);
  ASSERT_EQ(recovered.size(), 20u);  // blocks 0 and 2 survive
  for (std::size_t i = 0; i < 10; ++i) ASSERT_EQ(recovered[i], trace[i]);
  for (std::size_t i = 10; i < 20; ++i)
    ASSERT_EQ(recovered[i], trace[i + 10]) << "record " << i;
  EXPECT_EQ(reader.stats().blocks_total, 3u);
  EXPECT_EQ(reader.stats().blocks_corrupt, 1u);
  EXPECT_GT(reader.stats().bytes_discarded, 0u);
  EXPECT_FALSE(reader.stats().truncated_tail);
  fs::remove(path);
}

TEST(TraceV2, ResyncsAfterCorruptLengthField) {
  const auto path = temp_path("saad_v2_badlen.trc");
  const auto trace = sample_trace(30);
  std::vector<std::uint64_t> block_starts;
  {
    TraceWriter::Options options;
    options.block_bytes = 1 << 20;
    options.atomic_finalize = false;
    TraceWriter writer(path, options);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      block_starts.push_back(writer.bytes_written());
      ASSERT_TRUE(writer.append(trace[i]));
      if ((i + 1) % 10 == 0) {
        ASSERT_TRUE(writer.flush());
      }
    }
    ASSERT_TRUE(writer.finalize());
  }
  auto bytes = read_bytes(path);
  // Blow up the middle block's length field: the reader must not trust it
  // and instead rescan for the next block marker.
  for (int i = 0; i < 4; ++i) bytes[block_starts[10] + 4 + i] = 0xFF;
  write_bytes(path, bytes);

  TraceReader reader(path);
  const auto recovered = drain(reader);
  ASSERT_EQ(recovered.size(), 20u);
  for (std::size_t i = 0; i < 10; ++i) ASSERT_EQ(recovered[i], trace[i]);
  for (std::size_t i = 10; i < 20; ++i) ASSERT_EQ(recovered[i], trace[i + 10]);
  EXPECT_GE(reader.stats().blocks_corrupt, 1u);
  fs::remove(path);
}

TEST(TraceV2, AtomicFinalizePublishesOnlyOnSuccess) {
  const auto path = temp_path("saad_v2_atomic.trc");
  const auto tmp = path + ".tmp";
  fs::remove(path);
  const auto trace = sample_trace(50);
  {
    TraceWriter writer(path);
    for (const auto& s : trace) ASSERT_TRUE(writer.append(s));
    ASSERT_TRUE(writer.flush());
    // Mid-stream: the final path must not exist yet.
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(tmp));
    ASSERT_TRUE(writer.finalize());
  }
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(tmp));
  const auto loaded = read_trace_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, trace);
  fs::remove(path);
}

TEST(TraceV2, CrashBeforeFinalizeLeavesPreviousTraceAndRecoverableTmp) {
  const auto path = temp_path("saad_v2_crash.trc");
  const auto tmp = path + ".tmp";
  const auto old_trace = sample_trace(20);
  ASSERT_TRUE(write_trace_file(path, old_trace));

  const auto new_trace = sample_trace(40);
  {
    TraceWriter writer(path);
    for (const auto& s : new_trace) ASSERT_TRUE(writer.append(s));
    ASSERT_TRUE(writer.flush());
    // Writer destroyed without finalize(): models a crash.
  }
  // The previous good trace is untouched...
  const auto still_old = read_trace_file(path);
  ASSERT_TRUE(still_old.has_value());
  EXPECT_EQ(*still_old, old_trace);
  // ...and every flushed block of the torn run is recoverable from the tmp.
  TraceReader reader(tmp);
  ASSERT_TRUE(reader.ok());
  const auto recovered = drain(reader);
  EXPECT_EQ(recovered, new_trace);
  fs::remove(path);
  fs::remove(tmp);
}

// ---- file entry points -----------------------------------------------------

TEST(TraceIo, FileRoundTrip) {
  const auto path = temp_path("saad_trace_test.trc");
  const auto trace = sample_trace(200);
  ASSERT_TRUE(write_trace_file(path, trace));
  TraceStats stats;
  const auto loaded = read_trace_file(path, &stats);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, trace);
  EXPECT_EQ(stats.version, 2);  // files are written framed
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(TraceIo, V1FilesAreRefused) {
  // A v1 image (magic + back-to-back records, as older builds wrote) is
  // recognized — so tools can say why — but no longer read.
  const auto path = temp_path("saad_trace_v1.trc");
  const char magic[8] = {'S', 'A', 'A', 'D', 'T', 'R', 'C', '1'};
  std::vector<std::uint8_t> bytes(magic, magic + sizeof(magic));
  for (const auto& s : sample_trace(100)) encode_synopsis(s, bytes);
  write_bytes(path, bytes);
  TraceReader reader(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.version(), 1);
  Synopsis s;
  EXPECT_FALSE(reader.next(s));
  TraceStats stats;
  EXPECT_FALSE(read_trace_file(path, &stats).has_value());
  EXPECT_EQ(stats.version, 1);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileReturnsNullopt) {
  EXPECT_FALSE(read_trace_file("/nonexistent/dir/trace.trc").has_value());
}

TEST(TraceIo, WriteToUnwritablePathFailsCleanly) {
  EXPECT_FALSE(write_trace_file("/nonexistent/dir/trace.trc",
                                sample_trace(3)));
}

TEST(TraceIo, EncodedSizeIsCompact) {
  // Paper: ~48 bytes per synopsis. v2 framing (16-byte header per 64 KB
  // block) must not change that realm.
  const auto path = temp_path("saad_trace_compact.trc");
  const auto trace = sample_trace(1000);
  ASSERT_TRUE(write_trace_file(path, trace));
  EXPECT_LT(fs::file_size(path) / trace.size(), 64u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace saad::core
