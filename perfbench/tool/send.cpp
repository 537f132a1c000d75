// send: the serve-wide open-loop sender. One single-threaded
// net::SynopsisClient on one connection sends the trace in fixed-size batches
// on a fixed schedule (batch j is due at t0 + j * batch / rate) regardless of
// how the server keeps up, and records how late it ran.
//
// It also computes, for every detection window w, the due time of the first
// synopsis whose end pushes the stream watermark to (w + 3) * window: the
// point where serve's 2-window-slack close cursor may close w. run.py
// subtracts it from the time serve printed w's `[stats]` line (both on
// CLOCK_MONOTONIC), which gives the verdict lag without the window length
// and the slack.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/trace_io.h"
#include "net/client.h"

namespace perfbench {

int cmd_send(const Args& args) {
  const std::string trace = args.get("trace", "");
  const double rate = args.get_double("rate", 100'000);
  constexpr std::size_t batch = 256;  // replay's default frame size
  const std::int64_t window_us = args.get_int("window-us", 1'000'000);
  const std::string port_file = args.get("port-file", "");
  const std::string windows_out = args.get("windows-out", "");

  std::vector<saad::core::Synopsis> synopses;
  {
    saad::core::TraceReader reader(trace);
    if (!reader.ok()) {
      std::fprintf(stderr, "send: cannot read %s\n", trace.c_str());
      return 1;
    }
    saad::core::Synopsis s;
    while (reader.next(s)) synopses.push_back(s);
  }

  // serve writes the port file once it listens; wait up to 30 s for it.
  long port = 0;
  for (int i = 0; i < 30000 && port == 0; ++i) {
    std::ifstream in(port_file);
    if (!(in >> port)) {
      port = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "send: no port in %s\n", port_file.c_str());
    return 1;
  }

  saad::net::SynopsisClient::Options options;
  options.port = static_cast<std::uint16_t>(port);
  options.batch_synopses = batch;
  options.spool_max_synopses = std::max<std::size_t>(batch * 4, 64 * 1024);
  saad::net::SynopsisClient client(options);
  bool connected = false;
  for (int i = 0; i < 50 && !(connected = client.connect()); ++i) {
  }
  if (!connected) {
    std::fprintf(stderr, "send: cannot connect to port %ld\n", port);
    return 1;
  }

  const double ns_per_synopsis = 1e9 / rate;
  const std::int64_t t0 = now_ns() + 20'000'000;  // 20 ms to settle
  auto due_of = [&](std::size_t index) {
    const std::size_t first = index / batch * batch;
    return t0 + static_cast<std::int64_t>(static_cast<double>(first) *
                                          ns_per_synopsis);
  };

  std::vector<double> late_ms;
  late_ms.reserve(synopses.size() / batch + 1);
  std::int64_t flush_ns = 0;
  std::size_t flushes = 0;
  for (std::size_t first = 0; first < synopses.size(); first += batch) {
    const std::int64_t due = due_of(first);
    // Sleep to ~100 us before the due time, then spin.
    for (std::int64_t now = now_ns(); now < due; now = now_ns()) {
      if (due - now > 200'000)
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100'000));
    }
    const std::int64_t started = now_ns();
    late_ms.push_back(static_cast<double>(started - due) / 1e6);
    const std::size_t last = std::min(first + batch, synopses.size());
    for (std::size_t i = first; i < last; ++i) client.enqueue(synopses[i]);
    const std::int64_t before = now_ns();
    client.flush();
    flush_ns += now_ns() - before;
    ++flushes;
  }
  const std::int64_t sent_until = now_ns();
  bool delivered = false;
  for (int i = 0; i < 20 && !(delivered = client.close()); ++i) {
  }

  // Window due times: the watermark (max task end) in send order.
  std::int64_t watermark = 0;
  std::int64_t next_window = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> window_due;
  for (std::size_t i = 0; i < synopses.size(); ++i) {
    watermark = std::max(watermark, synopses[i].start + synopses[i].duration);
    while ((next_window + 3) * window_us <= watermark) {
      window_due.emplace_back(next_window, due_of(i));
      ++next_window;
    }
  }
  if (!windows_out.empty()) {
    std::ofstream out(windows_out, std::ios::trunc);
    for (const auto& [w, due] : window_due) out << w << ' ' << due << '\n';
  }

  const auto& stats = client.stats();
  JsonOut out;
  out.num("synopses", static_cast<double>(synopses.size()));
  out.num("sent", static_cast<double>(stats.sent_synopses));
  out.num("frames", static_cast<double>(stats.sent_frames));
  out.num("dropped", static_cast<double>(stats.dropped + stats.spilled));
  out.num("delivered", delivered ? 1 : 0);
  out.num("t0_ns", static_cast<double>(t0));
  out.num("send_s", static_cast<double>(sent_until - t0) / 1e9);
  out.num("late_ms_p50", percentile(late_ms, 0.50));
  out.num("late_ms_p99", percentile(late_ms, 0.99));
  out.num("late_ms_max", percentile(late_ms, 1.0));
  out.num("flush_ns_per_synopsis",
          static_cast<double>(flush_ns) / static_cast<double>(synopses.size()));
  out.num("flushes", static_cast<double>(flushes));
  std::printf("%s\n", out.text().c_str());
  return delivered ? 0 : 1;
}

}  // namespace perfbench
