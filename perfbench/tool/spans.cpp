#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "common.h"
#include "core/report.h"

namespace perfbench {

Args::Args(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_.emplace_back(arg.substr(2), "1");
    } else {
      kv_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
    }
  }
}

bool Args::has(const std::string& key) const {
  for (const auto& [k, v] : kv_)
    if (k == key) return true;
  return false;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  for (const auto& [k, v] : kv_)
    if (k == key) return v;
  return fallback;
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  return has(key) ? std::stoll(get(key, "")) : fallback;
}

double Args::get_double(const std::string& key, double fallback) const {
  return has(key) ? std::stod(get(key, "")) : fallback;
}

void JsonOut::num(const std::string& key, double value) {
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  raw(key, buf);
}

void JsonOut::str(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    quoted += c;
  }
  quoted += '"';
  raw(key, quoted);
}

void JsonOut::raw(const std::string& key, const std::string& json) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + key + "\": " + json;
}

std::string JsonOut::text() const { return "{" + body_ + "}"; }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::vector<std::string> verdict_lines(
    const std::vector<saad::core::Anomaly>& anomalies,
    const saad::core::LogRegistry& registry) {
  std::vector<std::string> out;
  out.reserve(anomalies.size());
  for (const auto& a : anomalies)
    out.push_back("  " + saad::core::describe(a, registry));
  return out;
}

std::vector<std::string> read_verdict_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("  ", 0) == 0) out.push_back(line);
  return out;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

int Spans::open(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, 0, 0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  spans_[id].start = now_ns();
  return id;
}

void Spans::close(int id) {
  spans_[id].end = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<std::pair<std::string, std::int64_t>> Spans::self_times() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end - spans_[i].start;
  for (const auto& s : spans_)
    if (s.parent >= 0) self[s.parent] -= s.end - s.start;
  std::map<std::string, std::int64_t> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_name[spans_[i].name] += self[i];
  return {by_name.begin(), by_name.end()};
}

std::int64_t Spans::total(const std::string& name) const {
  std::int64_t sum = 0;
  for (const auto& s : spans_)
    if (s.name == name) sum += s.end - s.start;
  return sum;
}

bool Spans::write_json(const std::string& path,
                       const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "%s\n {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": "
                 "%lld, \"parent\": %d, \"workload\": \"%s\"}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent, workload.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::string module_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

void report_layers(const Spans& spans, double synopses, std::size_t passes,
                   const std::string& spans_out, const std::string& workload,
                   JsonOut& out) {
  const std::int64_t wall_ns = spans.total("run");
  std::map<std::string, std::int64_t> by_module;
  for (const auto& [name, self] : spans.self_times())
    by_module[module_of(name)] += self;
  const std::int64_t unaccounted = by_module["run"];
  by_module.erase("run");
  std::vector<std::pair<std::string, std::int64_t>> ranked(by_module.begin(),
                                                           by_module.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("%-16s %14s %10s\n", "layer", "self ns/synopsis", "share");
  for (const auto& [module, self] : ranked) {
    std::printf("%-16s %14.1f %9.1f%%\n", module.c_str(),
                static_cast<double>(self) / synopses,
                100.0 * static_cast<double>(self) / static_cast<double>(wall_ns));
    out.num(module + ".self_ns_per_synopsis", static_cast<double>(self) / synopses);
  }
  std::printf("%-16s %14.1f %9.1f%%\n", "unaccounted",
              static_cast<double>(unaccounted) / synopses,
              100.0 * static_cast<double>(unaccounted) / static_cast<double>(wall_ns));
  const double per_pass_ms = 1e6 * static_cast<double>(passes);
  out.num("traced.wall_ms", static_cast<double>(wall_ns) / per_pass_ms);
  out.num("traced.unaccounted_ms", static_cast<double>(unaccounted) / per_pass_ms);
  if (!spans_out.empty()) spans.write_json(spans_out, workload);
}

}  // namespace perfbench
