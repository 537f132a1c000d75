// Pipeline flight recorder: a bounded ring buffer of recent, rare pipeline
// events (window open/close, corrupt-block skips, torn tails, model reloads,
// mode changes). Unlike metrics — aggregates with no ordering — the recorder
// answers "what just happened, in what order?" for post-mortems: dump it on
// demand (dump_text()) or automatically on a fatal signal
// (install_crash_handler()).
//
// Cost model: record() formats the detail string up front (snprintf into a
// fixed in-event buffer, no allocation) and takes a mutex for the ring slot.
// That is deliberately NOT a hot-path structure: events are per-window /
// per-incident, orders of magnitude rarer than per-synopsis metrics. The
// ring keeps the newest `capacity` events; older ones are overwritten and
// only the lifetime count remembers them.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace saad::obs {

enum class EventKind : std::uint8_t {
  kWindowOpen,
  kWindowClose,
  kShardStall,
  kCorruptBlock,
  kTornTail,
  kModelReload,
  kModeChange,
  kIoError,
  kCustom,
};
const char* to_string(EventKind kind);

class FlightRecorder {
 public:
  /// Room for "cassandra: skipped corrupt block 12345 (67890 bytes)"-sized
  /// details; longer messages are truncated, never allocated.
  static constexpr std::size_t kDetailBytes = 104;

  struct Event {
    std::uint64_t seq = 0;      // 1-based lifetime sequence number
    std::uint64_t wall_us = 0;  // wall clock at record(), us since epoch
    EventKind kind = EventKind::kCustom;
    char detail[kDetailBytes] = {};
  };

  explicit FlightRecorder(std::size_t capacity = 1024);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide recorder the pipeline records into (leaked, like the
  /// global metrics registry, so static users stay valid through exit).
  static FlightRecorder& global();

  /// printf-style detail; truncated to kDetailBytes - 1.
  void record(EventKind kind, const char* format, ...)
      __attribute__((format(printf, 3, 4)));

  /// Retained events, oldest first.
  std::vector<Event> dump() const;

  /// One line per retained event: "#seq +0.123456s kind: detail" (time is
  /// relative to the first retained event).
  std::string dump_text() const;

  /// Best-effort dump for crash context: no locks, no allocation, writes
  /// directly to `fd` with write(2). Torn concurrent records may render
  /// partially — acceptable in a signal handler.
  void dump_to_fd(int fd) const noexcept;

  /// Drops retained events; the lifetime count and sequence numbers keep
  /// counting, so post-clear events are still globally ordered.
  void clear();
  std::uint64_t recorded() const;  // lifetime count, including overwritten
  std::size_t capacity() const { return ring_.size(); }

 private:
  mutable std::mutex mu_;
  std::vector<Event> ring_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t first_retained_ = 1;  // advanced by clear()
};

/// Installs fatal-signal handlers (SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT)
/// that dump FlightRecorder::global() to stderr before re-raising with the
/// default action. Idempotent; call once from main().
void install_crash_handler();

}  // namespace saad::obs
