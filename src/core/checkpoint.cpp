#include "core/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

#include "core/telemetry.h"
#include "core/varint.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace saad::core {

namespace {

namespace fs = std::filesystem;

constexpr char kFilePrefix[] = "ckpt-";
constexpr char kFileSuffix[] = ".saadckp";

struct CheckpointMetrics {
  obs::Counter& writes;
  obs::Counter& write_errors;
  obs::Counter& written_bytes;
  obs::Counter& restores;
  obs::Counter& corrupt;
  obs::Counter& pruned;
  obs::Gauge& last_sequence;
  obs::Histogram& write_us;

  CheckpointMetrics()
      : writes(obs::MetricsRegistry::global().counter(
            "saad_checkpoint_writes_total",
            "Checkpoint files written (temp + fsync + rename completed).")),
        write_errors(obs::MetricsRegistry::global().counter(
            "saad_checkpoint_write_errors_total",
            "Checkpoint writes that failed: before the rename (previous "
            "checkpoint left untouched) or at the directory fsync.")),
        written_bytes(obs::MetricsRegistry::global().counter(
            "saad_checkpoint_written_bytes_total",
            "Bytes of encoded checkpoints written.")),
        restores(obs::MetricsRegistry::global().counter(
            "saad_checkpoint_restores_total",
            "Checkpoints successfully decoded and restored from.")),
        corrupt(obs::MetricsRegistry::global().counter(
            "saad_checkpoint_corrupt_total",
            "Checkpoint candidates rejected as torn or corrupt during "
            "newest-valid fallback.")),
        pruned(obs::MetricsRegistry::global().counter(
            "saad_checkpoint_pruned_total",
            "Old checkpoint files removed by retention.")),
        last_sequence(obs::MetricsRegistry::global().gauge(
            "saad_checkpoint_last_sequence",
            "Sequence number of the most recently written checkpoint.")),
        write_us(obs::MetricsRegistry::global().histogram(
            "saad_checkpoint_write_us",
            "Latency of one checkpoint write (encode, write, fsync, rename "
            "and directory fsync), microseconds.",
            obs::latency_bounds_us())) {}

  static CheckpointMetrics& get() {
    static CheckpointMetrics* metrics = new CheckpointMetrics();
    return *metrics;
  }
};

void put_section(CheckpointSection id, std::span<const std::uint8_t> payload,
                 std::vector<std::uint8_t>& out) {
  put_frame(static_cast<std::uint8_t>(id), payload, out);
}

/// Leaves room for a section header at the end of `out` and returns where
/// the payload, appended next, starts; close_section() frames it in place,
/// so no payload is built in a buffer of its own first.
std::size_t open_section(std::vector<std::uint8_t>& out) {
  out.resize(out.size() + kCheckpointSectionHeader);
  return out.size();
}

void close_section(CheckpointSection id, std::size_t payload,
                   std::vector<std::uint8_t>& out) {
  const auto id_byte = static_cast<std::uint8_t>(id);
  std::uint8_t* header = out.data() + payload - kCheckpointSectionHeader;
  header[0] = id_byte;
  put_u32le(static_cast<std::uint32_t>(out.size() - payload), header + 1);
  put_u32le(frame_crc(id_byte, std::span(out).subspan(payload)), header + 5);
}

/// Slices the next section off `in`. False on truncation, oversized length,
/// or CRC mismatch.
bool get_section(std::span<const std::uint8_t>& in, std::uint8_t& id,
                 std::span<const std::uint8_t>& payload) {
  if (in.size() < kCheckpointSectionHeader) return false;
  const FrameHeader header = get_frame_header(in.data());
  id = header.id;
  if (header.payload_len > kMaxCheckpointSection) return false;
  if (in.size() < kCheckpointSectionHeader + header.payload_len) return false;
  payload = in.subspan(kCheckpointSectionHeader, header.payload_len);
  if (frame_crc(id, payload) != header.crc) return false;
  in = in.subspan(kCheckpointSectionHeader + header.payload_len);
  return true;
}

bool valid_probability(double d) {
  return std::isfinite(d) && d >= 0.0 && d <= 1.0;
}

}  // namespace

void detail::register_checkpoint_metrics() { CheckpointMetrics::get(); }

void encode_anomalies(std::span<const Anomaly> anomalies,
                      std::vector<std::uint8_t>& out) {
  put_varint(anomalies.size(), out);
  for (const Anomaly& a : anomalies) {
    put_varint(a.window, out);
    put_varint(zigzag(a.window_start), out);
    put_varint(a.host, out);
    put_varint(a.stage, out);
    put_varint(static_cast<std::uint64_t>(a.kind), out);
    put_varint(a.due_to_new_signature ? 1 : 0, out);
    put_double(a.p_value, out);
    put_double(a.proportion, out);
    put_double(a.train_proportion, out);
    put_varint(a.n, out);
    put_varint(a.outliers, out);
    put_signature(a.example_signature, out);
  }
}

bool decode_anomalies(std::span<const std::uint8_t> in,
                      std::vector<Anomaly>& out) {
  std::uint64_t count = 0;
  if (!get_varint(in, count) || count > 0x1000000) return false;
  std::vector<Anomaly> parsed;
  parsed.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Anomaly a;
    std::uint64_t v = 0;
    if (!get_varint(in, v)) return false;
    a.window = static_cast<std::size_t>(v);
    if (!get_varint(in, v)) return false;
    a.window_start = unzigzag(v);
    if (!get_varint(in, v) || v > 0xFFFFFFFF) return false;
    a.host = static_cast<HostId>(v);
    if (!get_varint(in, v) || v > 0xFFFF) return false;
    a.stage = static_cast<StageId>(v);
    if (!get_varint(in, v) || v > 1) return false;
    a.kind = static_cast<AnomalyKind>(v);
    if (!get_varint(in, v) || v > 1) return false;
    a.due_to_new_signature = v != 0;
    if (!get_double(in, a.p_value) || !valid_probability(a.p_value))
      return false;
    if (!get_double(in, a.proportion) || !valid_probability(a.proportion))
      return false;
    if (!get_double(in, a.train_proportion) ||
        !valid_probability(a.train_proportion)) {
      return false;
    }
    if (!get_varint(in, a.n)) return false;
    if (!get_varint(in, a.outliers)) return false;
    if (!get_signature(in, a.example_signature)) return false;
    parsed.push_back(std::move(a));
  }
  if (!in.empty()) return false;
  out = std::move(parsed);
  return true;
}

void encode_checkpoint(const Checkpoint& c, std::vector<std::uint8_t>& out) {
  out.insert(out.end(), kCheckpointMagic,
             kCheckpointMagic + sizeof(kCheckpointMagic));
  std::size_t payload = open_section(out);
  put_varint(kCheckpointVersion, out);
  put_varint(c.sequence, out);
  put_varint(c.model_epoch, out);
  put_varint(zigzag(c.window), out);
  put_varint(c.threads, out);
  put_varint(c.ingested, out);
  put_varint(c.published, out);
  put_varint(c.acked, out);
  close_section(CheckpointSection::kMeta, payload, out);
  put_section(CheckpointSection::kModel, c.model, out);
  put_section(CheckpointSection::kRegistry, c.registry, out);
  put_section(CheckpointSection::kAnalyzer, c.analyzer, out);
  payload = open_section(out);
  encode_anomalies(c.anomalies, out);
  close_section(CheckpointSection::kAnomalies, payload, out);
  put_section(CheckpointSection::kEnd, {}, out);
}

std::optional<Checkpoint> decode_checkpoint(std::span<const std::uint8_t> in) {
  if (in.size() < sizeof(kCheckpointMagic) ||
      std::memcmp(in.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    return std::nullopt;
  }
  in = in.subspan(sizeof(kCheckpointMagic));

  // v1 is strict about shape: exactly these sections, in this order. A
  // future version bumps kCheckpointVersion (and the magic if the framing
  // itself changes) rather than tolerating unknown sections.
  constexpr CheckpointSection kOrder[] = {
      CheckpointSection::kMeta,      CheckpointSection::kModel,
      CheckpointSection::kRegistry,  CheckpointSection::kAnalyzer,
      CheckpointSection::kAnomalies, CheckpointSection::kEnd,
  };
  Checkpoint c;
  for (const CheckpointSection expected : kOrder) {
    std::uint8_t id = 0;
    std::span<const std::uint8_t> payload;
    if (!get_section(in, id, payload)) return std::nullopt;
    if (id != static_cast<std::uint8_t>(expected)) return std::nullopt;
    switch (expected) {
      case CheckpointSection::kMeta: {
        std::span<const std::uint8_t> p = payload;
        std::uint64_t version = 0, window = 0;
        if (!get_varint(p, version) || version != kCheckpointVersion)
          return std::nullopt;
        if (!get_varint(p, c.sequence)) return std::nullopt;
        if (!get_varint(p, c.model_epoch)) return std::nullopt;
        if (!get_varint(p, window)) return std::nullopt;
        c.window = unzigzag(window);
        if (c.window <= 0) return std::nullopt;
        if (!get_varint(p, c.threads)) return std::nullopt;
        if (!get_varint(p, c.ingested)) return std::nullopt;
        if (!get_varint(p, c.published)) return std::nullopt;
        if (!get_varint(p, c.acked)) return std::nullopt;
        if (!p.empty()) return std::nullopt;
        break;
      }
      case CheckpointSection::kModel:
        c.model.assign(payload.begin(), payload.end());
        break;
      case CheckpointSection::kRegistry:
        c.registry.assign(payload.begin(), payload.end());
        break;
      case CheckpointSection::kAnalyzer:
        c.analyzer.assign(payload.begin(), payload.end());
        break;
      case CheckpointSection::kAnomalies:
        if (!decode_anomalies(payload, c.anomalies)) return std::nullopt;
        break;
      case CheckpointSection::kEnd:
        if (!payload.empty()) return std::nullopt;
        break;
    }
  }
  if (!in.empty()) return std::nullopt;  // trailing garbage
  return c;
}

namespace {

/// Creates or truncates `path`, writes all of `bytes` and fsyncs the file.
bool write_synced(const std::string& path,
                  std::span<const std::uint8_t> bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return false;
  bool ok = true;
  while (ok && !bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
  ok = ok && ::fsync(fd) == 0;
  return ::close(fd) == 0 && ok;
}

/// fsyncs directory `dir`, so that a rename into it outlives a power loss.
bool sync_directory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  return ::close(fd) == 0 && ok;
}

/// Writes `c` to `path` in directory `dir` durably: path + ".tmp", fsync,
/// rename, fsync of `dir`. Encodes into `bytes`, which it clears first.
/// False on any I/O failure; the previous file at `path`, if any, is
/// untouched then unless only the directory fsync failed.
bool write_checkpoint_file(const std::string& dir, const std::string& path,
                           const Checkpoint& c,
                           std::vector<std::uint8_t>& bytes) {
  auto& metrics = CheckpointMetrics::get();
  std::chrono::steady_clock::time_point begin;
  if constexpr (obs::kMetricsEnabled) begin = std::chrono::steady_clock::now();

  bytes.clear();
  encode_checkpoint(c, bytes);
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  if (!write_synced(tmp, bytes)) {
    metrics.write_errors.inc();
    fs::remove(tmp, ec);
    return false;
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    metrics.write_errors.inc();
    fs::remove(tmp, ec);
    return false;
  }
  if (!sync_directory(dir)) {
    metrics.write_errors.inc();
    return false;
  }
  if constexpr (obs::kMetricsEnabled) {
    metrics.writes.inc();
    metrics.written_bytes.inc(bytes.size());
    metrics.last_sequence.set(static_cast<std::int64_t>(c.sequence));
    metrics.write_us.observe(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - begin)
            .count());
  }
  obs::FlightRecorder::global().record(
      obs::EventKind::kCustom,
      "checkpoint %llu written: %zu bytes, %llu synopses",
      static_cast<unsigned long long>(c.sequence), bytes.size(),
      static_cast<unsigned long long>(c.ingested));
  return true;
}

}  // namespace

std::optional<Checkpoint> read_checkpoint_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                                  std::istreambuf_iterator<char>());
  return decode_checkpoint(bytes);
}

namespace {

/// Sequence numbers of every ckpt-*.saadckp in `dir`, ascending.
std::vector<std::uint64_t> list_sequences(const std::string& dir) {
  std::vector<std::uint64_t> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const std::size_t prefix = sizeof(kFilePrefix) - 1;
    const std::size_t suffix = sizeof(kFileSuffix) - 1;
    if (name.size() <= prefix + suffix) continue;
    if (name.rfind(kFilePrefix, 0) != 0) continue;
    if (name.compare(name.size() - suffix, suffix, kFileSuffix) != 0) continue;
    const std::string digits = name.substr(prefix, name.size() - prefix - suffix);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    try {
      out.push_back(std::stoull(digits));
    } catch (const std::exception&) {
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

CheckpointDir::CheckpointDir(std::string dir)
    : dir_(std::move(dir)), sequences_(list_sequences(dir_)) {}

bool CheckpointDir::ensure() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  return !ec && fs::is_directory(dir_, ec);
}

std::string CheckpointDir::path_for(std::uint64_t sequence) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%012llu%s", kFilePrefix,
                static_cast<unsigned long long>(sequence), kFileSuffix);
  return (fs::path(dir_) / name).string();
}


std::uint64_t CheckpointDir::max_sequence() const {
  return sequences_.empty() ? 0 : sequences_.back();
}

std::optional<Checkpoint> CheckpointDir::load_latest(
    std::size_t* corrupt_skipped) const {
  if (corrupt_skipped != nullptr) *corrupt_skipped = 0;
  auto& metrics = CheckpointMetrics::get();
  for (auto it = sequences_.rbegin(); it != sequences_.rend(); ++it) {
    const std::string path = path_for(*it);
    if (auto c = read_checkpoint_file(path)) {
      metrics.restores.inc();
      return c;
    }
    metrics.corrupt.inc();
    if (corrupt_skipped != nullptr) ++*corrupt_skipped;
    std::fprintf(stderr,
                 "checkpoint: %s is torn or corrupt, falling back to the "
                 "previous checkpoint\n",
                 path.c_str());
  }
  return std::nullopt;
}

bool CheckpointDir::write(const Checkpoint& c, std::size_t keep) {
  if (!write_checkpoint_file(dir_, path_for(c.sequence), c, bytes_))
    return false;
  const auto at =
      std::lower_bound(sequences_.begin(), sequences_.end(), c.sequence);
  if (at == sequences_.end() || *at != c.sequence)
    sequences_.insert(at, c.sequence);
  if (sequences_.size() > keep) {
    auto& metrics = CheckpointMetrics::get();
    const std::size_t drop = sequences_.size() - keep;
    for (std::size_t i = 0; i < drop; ++i) {
      std::error_code ec;
      if (fs::remove(path_for(sequences_[i]), ec)) metrics.pruned.inc();
    }
    sequences_.erase(sequences_.begin(),
                     sequences_.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  return true;
}

}  // namespace saad::core
