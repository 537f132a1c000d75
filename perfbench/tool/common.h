// Shared helpers for perfbench_tool: flag parsing, a flat JSON result
// writer, percentiles, verdict rendering, and the in-memory span recorder
// the traced runs use.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/log_registry.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// --key=value flags after the subcommand.
class Args {
 public:
  Args(int argc, char** argv);
  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// One flat JSON object, printed as the subcommand's last stdout line.
class JsonOut {
 public:
  void num(const std::string& key, double value);
  void str(const std::string& key, const std::string& value);
  void raw(const std::string& key, const std::string& json);
  std::string text() const;

 private:
  std::string body_;
};

/// q in [0, 1]; linear interpolation; NaN on empty input.
double percentile(std::vector<double> values, double q);

/// The "  <describe>" lines `saad_offline detect` prints after its header.
std::vector<std::string> verdict_lines(
    const std::vector<saad::core::Anomaly>& anomalies,
    const saad::core::LogRegistry& registry);

/// Verdict lines (indented, as the CLI prints them) of a saved CLI stdout.
std::vector<std::string> read_verdict_lines(const std::string& path);

std::vector<std::uint8_t> read_bytes(const std::string& path);

/// Span recorder: one span per call batch, kept in memory, written at the
/// end. Disabled recorders cost one branch per scope.
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int open(const char* name);
  void close(int id);

  class Scope {
   public:
    Scope(Spans& spans, const char* name)
        : spans_(spans), id_(spans.enabled() ? spans.open(name) : -1) {}
    ~Scope() {
      if (id_ >= 0) spans_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

  /// name -> self ns (own duration minus the time its children cover).
  std::vector<std::pair<std::string, std::int64_t>> self_times() const;
  /// Total ns of every span with this name.
  std::int64_t total(const std::string& name) const;

  /// {"spans": [{name, start_ns, end_ns, parent, workload}, ...]} to `path`.
  bool write_json(const std::string& path, const std::string& workload) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The module a span belongs to: its name up to the first '.'.
std::string module_of(const std::string& span_name);

/// Adds `<module>.self_ns_per_synopsis` for every module, and per pass of
/// the root "run" span `traced.wall_ms` and `traced.unaccounted_ms` (the
/// root's self time), to `out`; prints the modules ranked by self time; and
/// writes the spans to `spans_out` when it is not empty. `synopses` counts
/// all passes.
void report_layers(const Spans& spans, double synopses, std::size_t passes,
                   const std::string& spans_out, const std::string& workload,
                   JsonOut& out);

}  // namespace perfbench
