#include "core/trace_io.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "common/crc32c.h"
#include "core/telemetry.h"
#include "core/varint.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace saad::core {

namespace {

struct TraceIoMetrics {
  obs::Counter& writer_synopses;
  obs::Counter& writer_blocks;
  obs::Counter& writer_bytes;
  obs::Counter& writer_flushes;
  obs::Counter& reader_records;
  obs::Counter& reader_blocks;
  obs::Counter& reader_crc_failures;
  obs::Counter& reader_bytes_discarded;
  obs::Counter& reader_torn_tails;

  TraceIoMetrics()
      : writer_synopses(obs::MetricsRegistry::global().counter(
            "saad_trace_writer_synopses_total",
            "Synopses appended to trace writers.")),
        writer_blocks(obs::MetricsRegistry::global().counter(
            "saad_trace_writer_blocks_total",
            "Sealed v2 blocks written to disk.")),
        writer_bytes(obs::MetricsRegistry::global().counter(
            "saad_trace_writer_bytes_total",
            "Framed bytes written (headers + payloads).")),
        writer_flushes(obs::MetricsRegistry::global().counter(
            "saad_trace_writer_flushes_total",
            "Explicit flush() calls that pushed data to the OS.")),
        reader_records(obs::MetricsRegistry::global().counter(
            "saad_trace_reader_records_total",
            "Synopses decoded from CRC-verified trace blocks.")),
        reader_blocks(obs::MetricsRegistry::global().counter(
            "saad_trace_reader_blocks_total",
            "v2 block headers seen, including corrupt blocks.")),
        reader_crc_failures(obs::MetricsRegistry::global().counter(
            "saad_trace_reader_crc_failures_total",
            "Blocks skipped for CRC mismatch, bad framing, or undecodable "
            "payload.")),
        reader_bytes_discarded(obs::MetricsRegistry::global().counter(
            "saad_trace_reader_bytes_discarded_total",
            "Bytes of damage skipped while recovering trace files.")),
        reader_torn_tails(obs::MetricsRegistry::global().counter(
            "saad_trace_reader_torn_tails_total",
            "Files that ended mid-record or mid-block (crash tails "
            "recovered up to the last sealed block).")) {}

  static TraceIoMetrics& get() {
    static TraceIoMetrics* metrics = new TraceIoMetrics();
    return *metrics;
  }
};

constexpr char kMagicV1[8] = {'S', 'A', 'A', 'D', 'T', 'R', 'C', '1'};
constexpr char kMagicV2[8] = {'S', 'A', 'A', 'D', 'T', 'R', 'C', '2'};
constexpr char kBlockMarker[4] = {'B', 'L', 'K', '2'};
constexpr std::size_t kBlockHeaderSize = 16;
// Sanity cap on a decoded block: a length field above this is damage, not a
// block (the writer seals at Options::block_bytes, default 64 KB).
constexpr std::uint32_t kMaxBlockPayload = 64u * 1024 * 1024;

// Publishes the TraceStats deltas accrued during one block refill into the
// global metrics and flight recorder, whatever exit path the refill takes.
// Keeps the recovery logic free of per-site instrumentation.
class ReaderDamageScope {
 public:
  explicit ReaderDamageScope(const TraceStats& stats)
      : stats_(stats), before_(stats) {}
  ReaderDamageScope(const ReaderDamageScope&) = delete;
  ReaderDamageScope& operator=(const ReaderDamageScope&) = delete;

  ~ReaderDamageScope() {
    if constexpr (obs::kMetricsEnabled) {
      auto& metrics = TraceIoMetrics::get();
      metrics.reader_blocks.inc(stats_.blocks_total - before_.blocks_total);
      metrics.reader_crc_failures.inc(stats_.blocks_corrupt -
                                      before_.blocks_corrupt);
      metrics.reader_bytes_discarded.inc(stats_.bytes_discarded -
                                         before_.bytes_discarded);
      if (stats_.truncated_tail && !before_.truncated_tail)
        metrics.reader_torn_tails.inc();
    }
    if (stats_.blocks_corrupt > before_.blocks_corrupt) {
      obs::FlightRecorder::global().record(
          obs::EventKind::kCorruptBlock,
          "skipped %llu corrupt block(s), %llu byte(s) discarded",
          static_cast<unsigned long long>(stats_.blocks_corrupt -
                                          before_.blocks_corrupt),
          static_cast<unsigned long long>(stats_.bytes_discarded -
                                          before_.bytes_discarded));
    }
    if (stats_.truncated_tail && !before_.truncated_tail) {
      obs::FlightRecorder::global().record(
          obs::EventKind::kTornTail, "torn tail: %llu byte(s) discarded",
          static_cast<unsigned long long>(stats_.bytes_discarded -
                                          before_.bytes_discarded));
    }
  }

 private:
  const TraceStats& stats_;
  TraceStats before_;
};

}  // namespace

void detail::register_trace_io_metrics() { TraceIoMetrics::get(); }

// ---- TraceWriter -----------------------------------------------------------

TraceWriter::TraceWriter(std::string path, Options options)
    : path_(std::move(path)),
      write_path_(options.atomic_finalize ? path_ + ".tmp" : path_),
      options_(options) {
  if (options_.block_bytes == 0) options_.block_bytes = 1;
  out_.open(write_path_, std::ios::binary | std::ios::trunc);
  if (!out_) return;
  out_.write(kMagicV2, sizeof(kMagicV2));
  ok_ = static_cast<bool>(out_);
  if (ok_) bytes_ = sizeof(kMagicV2);
}

TraceWriter::~TraceWriter() {
  // Crash semantics: flush what we can, never rename. An unfinalized atomic
  // writer leaves `path.tmp` with every sealed block recoverable.
  if (!finalized_) {
    flush();
    out_.close();
  }
}

bool TraceWriter::write_block() {
  std::uint8_t header[kBlockHeaderSize];
  std::memcpy(header, kBlockMarker, sizeof(kBlockMarker));
  put_u32le(static_cast<std::uint32_t>(payload_.size()), header + 4);
  put_u32le(payload_records_, header + 8);
  put_u32le(crc32c(payload_), header + 12);
  out_.write(reinterpret_cast<const char*>(header), sizeof(header));
  out_.write(reinterpret_cast<const char*>(payload_.data()),
             static_cast<std::streamsize>(payload_.size()));
  out_.flush();  // sealed blocks survive the process dying
  if (!out_) {
    ok_ = false;
    return false;
  }
  if constexpr (obs::kMetricsEnabled) {
    auto& metrics = TraceIoMetrics::get();
    metrics.writer_blocks.inc();
    metrics.writer_bytes.inc(sizeof(header) + payload_.size());
  }
  bytes_ += sizeof(header) + payload_.size();
  ++blocks_;
  payload_.clear();
  payload_records_ = 0;
  return true;
}

bool TraceWriter::append(SynopsisView s) {
  if (!ok_ || finalized_) return false;
  encode_synopsis(s, payload_);
  ++payload_records_;
  ++synopses_;
  if constexpr (obs::kMetricsEnabled)
    TraceIoMetrics::get().writer_synopses.inc();
  if (payload_.size() >= options_.block_bytes) return write_block();
  return true;
}

bool TraceWriter::flush() {
  if (!ok_ || finalized_) return false;
  if constexpr (obs::kMetricsEnabled)
    TraceIoMetrics::get().writer_flushes.inc();
  if (!payload_.empty()) return write_block();
  out_.flush();
  ok_ = static_cast<bool>(out_);
  return ok_;
}

bool TraceWriter::finalize() {
  if (finalized_) return ok_;
  if (ok_) flush();
  out_.close();
  if (out_.fail()) ok_ = false;
  if (ok_ && options_.atomic_finalize) {
    std::error_code ec;
    std::filesystem::rename(write_path_, path_, ec);
    if (ec) ok_ = false;
  }
  finalized_ = true;
  return ok_;
}

// ---- TraceReader -----------------------------------------------------------

TraceReader::TraceReader(const std::string& path) {
  in_.open(path, std::ios::binary);
  if (!in_) return;
  std::uint8_t magic[8];
  std::size_t got = 0;
  if (!read_exact(magic, sizeof(magic), &got)) return;
  if (std::memcmp(magic, kMagicV1, sizeof(magic)) == 0) {
    stats_.version = 1;  // recognized, but no longer supported
  } else if (std::memcmp(magic, kMagicV2, sizeof(magic)) == 0) {
    stats_.version = 2;
    ok_ = true;
  }
}

bool TraceReader::read_exact(std::uint8_t* dst, std::size_t n,
                             std::size_t* got_out) {
  std::size_t got = 0;
  const std::size_t from_carry = std::min(n, carry_.size());
  if (from_carry > 0) {  // empty carry_ has a null data(): UB to memcpy from
    std::memcpy(dst, carry_.data(), from_carry);
    carry_.erase(carry_.begin(),
                 carry_.begin() + static_cast<std::ptrdiff_t>(from_carry));
    got += from_carry;
  }
  if (got < n) {
    in_.read(reinterpret_cast<char*>(dst) + got,
             static_cast<std::streamsize>(n - got));
    got += static_cast<std::size_t>(in_.gcount());
  }
  if (got_out) *got_out = got;
  return got == n;
}

bool TraceReader::next(SynopsisBatch& out) {
  out.clear();
  if (!ok_) return false;
  if (next_record_ >= block_.size() && !refill_block()) return false;
  if (next_record_ == 0) {
    out.swap(block_);  // block_ takes out's storage, empty
  } else {
    out.append(block_, next_record_);
    block_.clear();
  }
  next_record_ = 0;
  stats_.synopses += out.size();
  return true;
}

bool TraceReader::next(Synopsis& out) {
  if (!ok_) return false;
  if (next_record_ >= block_.size() && !refill_block()) return false;
  out.assign(block_[next_record_++]);
  ++stats_.synopses;
  return true;
}

bool TraceReader::decode_block(std::uint32_t record_count) {
  block_.clear();
  std::span<const std::uint8_t> rest(payload_);
  for (std::uint32_t r = 0; r < record_count; ++r)
    if (!decode_synopsis(rest, block_)) return false;
  return rest.empty();
}

bool TraceReader::refill_block() {
  ReaderDamageScope damage(stats_);
  block_.clear();
  next_record_ = 0;

  // Scans forward from `window` (bytes already consumed, starting at the
  // byte where framing broke) to the next block marker; queues the marker
  // and everything after it back through carry_. False when the file ends
  // first. Every skipped byte is counted discarded.
  const auto resync = [this](std::vector<std::uint8_t> window) {
    ++stats_.blocks_corrupt;
    if (!window.empty()) {  // the first byte is known-bad
      window.erase(window.begin());
      ++stats_.bytes_discarded;
    }
    for (;;) {
      std::size_t i = 0;
      for (; i + sizeof(kBlockMarker) <= window.size(); ++i)
        if (std::memcmp(window.data() + i, kBlockMarker,
                        sizeof(kBlockMarker)) == 0)
          break;
      if (i + sizeof(kBlockMarker) <= window.size()) {
        stats_.bytes_discarded += i;
        carry_.assign(window.begin() + static_cast<std::ptrdiff_t>(i),
                      window.end());
        return true;
      }
      if (window.size() > 3) {  // keep a 3-byte overlap for split markers
        stats_.bytes_discarded += window.size() - 3;
        window.erase(window.begin(),
                     window.end() - 3);
      }
      std::uint8_t chunk[512];
      in_.read(reinterpret_cast<char*>(chunk), sizeof(chunk));
      const auto got = static_cast<std::size_t>(in_.gcount());
      if (got == 0) {
        stats_.bytes_discarded += window.size();
        return false;
      }
      window.insert(window.end(), chunk, chunk + got);
    }
  };

  for (;;) {
    std::uint8_t header[kBlockHeaderSize];
    std::size_t got = 0;
    if (!read_exact(header, sizeof(header), &got)) {
      if (got > 0) {  // partial header: torn tail
        stats_.bytes_discarded += got;
        stats_.truncated_tail = true;
      }
      return false;
    }
    const std::uint32_t payload_len = get_u32le(header + 4);
    const std::uint32_t record_count = get_u32le(header + 8);
    const std::uint32_t crc = get_u32le(header + 12);
    if (std::memcmp(header, kBlockMarker, sizeof(kBlockMarker)) != 0 ||
        payload_len > kMaxBlockPayload) {
      if (!resync(std::vector<std::uint8_t>(header, header + sizeof(header))))
        return false;
      continue;
    }
    ++stats_.blocks_total;
    payload_.resize(payload_len);
    got = 0;
    if (!read_exact(payload_.data(), payload_len, &got)) {
      stats_.bytes_discarded += sizeof(header) + got;
      stats_.truncated_tail = true;
      return false;
    }
    max_buffered_ = std::max(max_buffered_, payload_.size() + sizeof(header));
    // A decode failure past a matching CRC is a codec bug or a CRC
    // collision: the block is treated as corrupt rather than trusted.
    if (crc32c(payload_) != crc || !decode_block(record_count)) {
      block_.clear();
      ++stats_.blocks_corrupt;
      stats_.bytes_discarded += sizeof(header) + payload_len;
      continue;  // framing intact: the next header follows immediately
    }
    if constexpr (obs::kMetricsEnabled)
      TraceIoMetrics::get().reader_records.inc(block_.size());
    if (!block_.empty()) return true;
  }
}

// ---- file convenience wrappers ---------------------------------------------

bool write_trace_file(const std::string& path,
                      std::span<const Synopsis> trace) {
  bool ok;
  {
    TraceWriter writer(path);
    ok = writer.ok();
    for (const auto& s : trace) {
      if (!writer.append(s)) {
        ok = false;
        break;
      }
    }
    if (ok) ok = writer.finalize();
  }
  if (!ok) {  // don't leave a stale temp file behind
    std::error_code ec;
    std::filesystem::remove(path + ".tmp", ec);
  }
  return ok;
}

std::optional<std::vector<Synopsis>> read_trace_file(const std::string& path,
                                                     TraceStats* stats) {
  TraceReader reader(path);
  if (stats) *stats = reader.stats();
  if (!reader.ok()) return std::nullopt;
  std::vector<Synopsis> trace;
  SynopsisBatch block;
  while (reader.next(block)) block.copy_to(trace);
  if (stats) *stats = reader.stats();
  return trace;
}

}  // namespace saad::core
