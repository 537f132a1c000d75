#include "obs/flight_recorder.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <ctime>

#include <unistd.h>

namespace saad::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kWindowOpen:
      return "window-open";
    case EventKind::kWindowClose:
      return "window-close";
    case EventKind::kShardStall:
      return "shard-stall";
    case EventKind::kCorruptBlock:
      return "corrupt-block";
    case EventKind::kTornTail:
      return "torn-tail";
    case EventKind::kModelReload:
      return "model-reload";
    case EventKind::kModeChange:
      return "mode-change";
    case EventKind::kIoError:
      return "io-error";
    case EventKind::kCustom:
      return "event";
  }
  return "event";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::record(EventKind kind, const char* format, ...) {
  Event event;
  event.kind = kind;
  event.wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  va_list args;
  va_start(args, format);
  std::vsnprintf(event.detail, sizeof(event.detail), format, args);
  va_end(args);

  std::lock_guard lock(mu_);
  event.seq = next_seq_++;
  ring_[(event.seq - 1) % ring_.size()] = event;
}

std::vector<FlightRecorder::Event> FlightRecorder::dump() const {
  std::lock_guard lock(mu_);
  std::vector<Event> out;
  const std::uint64_t total = next_seq_ - 1;
  std::uint64_t first = total > ring_.size() ? total - ring_.size() + 1 : 1;
  first = std::max(first, first_retained_);
  if (first > total) return out;
  out.reserve(total - first + 1);
  for (std::uint64_t seq = first; seq <= total; ++seq)
    out.push_back(ring_[(seq - 1) % ring_.size()]);
  return out;
}

void FlightRecorder::clear() {
  std::lock_guard lock(mu_);
  first_retained_ = next_seq_;
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard lock(mu_);
  return next_seq_ - 1;
}

std::string FlightRecorder::dump_text() const {
  const auto events = dump();
  std::string out;
  const std::uint64_t base = events.empty() ? 0 : events.front().wall_us;
  for (const auto& event : events) {
    char line[kDetailBytes + 64];
    std::snprintf(line, sizeof(line), "#%llu +%.6fs %s: %s\n",
                  static_cast<unsigned long long>(event.seq),
                  static_cast<double>(event.wall_us - base) / 1e6,
                  to_string(event.kind), event.detail);
    out += line;
  }
  return out;
}

namespace {

// write(2)-only helpers for the signal path: no locale, no allocation.
// write() may return short (pipes near capacity, sockets, EINTR), so every
// chunk loops until fully written — a dump must never be silently truncated
// mid-buffer. EAGAIN (the fd is non-blocking and full) backs off with
// nanosleep, which is async-signal-safe, for a bounded number of retries;
// any other error abandons the dump.
void write_all(int fd, const char* data, std::size_t n) {
  int eagain_retries = 1000;  // ~1s of 1ms backoffs, then give up
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (--eagain_retries < 0) return;
      timespec ts{0, 1000000};  // 1ms
      ::nanosleep(&ts, nullptr);
      continue;
    }
    return;  // closed pipe, bad fd, ...: nothing useful left to do
  }
}

void write_str(int fd, const char* s) {
  std::size_t n = 0;
  while (s[n] != '\0' && n < 4096) ++n;
  write_all(fd, s, n);
}

void write_u64(int fd, std::uint64_t v) {
  char buf[24];
  std::size_t i = sizeof(buf);
  do {
    buf[--i] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0 && i > 0);
  write_all(fd, buf + i, sizeof(buf) - i);
}

}  // namespace

void FlightRecorder::dump_to_fd(int fd) const noexcept {
  // Deliberately lock-free: this runs in a signal handler where the mutex
  // may be held by the crashed thread. Reads may be torn; every byte written
  // is still bounded and NUL-safe.
  const std::uint64_t total = next_seq_ - 1;
  const std::uint64_t count =
      total > ring_.size() ? static_cast<std::uint64_t>(ring_.size()) : total;
  write_str(fd, "-- saad flight recorder (");
  write_u64(fd, count);
  write_str(fd, " of ");
  write_u64(fd, total);
  write_str(fd, " events) --\n");
  const std::uint64_t first = total - count + 1;
  for (std::uint64_t seq = first; seq <= total; ++seq) {
    const Event& event = ring_[(seq - 1) % ring_.size()];
    write_str(fd, "#");
    write_u64(fd, event.seq);
    write_str(fd, " ");
    write_str(fd, obs::to_string(event.kind));
    write_str(fd, ": ");
    char detail[kDetailBytes];
    std::memcpy(detail, event.detail, sizeof(detail));
    detail[sizeof(detail) - 1] = '\0';
    write_str(fd, detail);
    write_str(fd, "\n");
  }
}

namespace {

void crash_handler(int sig) {
  write_str(2, "\nsaad: fatal signal, dumping flight recorder\n");
  FlightRecorder::global().dump_to_fd(2);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void install_crash_handler() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  for (int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT})
    std::signal(sig, crash_handler);
}

}  // namespace saad::obs
