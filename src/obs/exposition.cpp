#include "obs/exposition.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.h"

namespace saad::obs {

namespace {

// Prometheus text format: HELP escapes backslash and newline.
std::string escape_help(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

// Label values additionally escape the double quote.
std::string escape_label_value(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '"')
      out += "\\\"";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

/// `{l1="v1",l2="v2"}` or empty; `extra` appends one more pair (used for le).
std::string label_block(const Labels& labels, const std::string& extra_key = {},
                        const std::string& extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key + "=\"" + escape_label_value(value) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key + "=\"" + extra_value + "\"";
  }
  out += '}';
  return out;
}

}  // namespace

std::string render_prometheus(const MetricsRegistry& registry) {
  std::ostringstream out;
  for (const auto& family : registry.snapshot()) {
    out << "# HELP " << family.name << ' ' << escape_help(family.help) << '\n';
    out << "# TYPE " << family.name << ' ' << to_string(family.type) << '\n';
    for (const auto& series : family.series) {
      switch (family.type) {
        case MetricType::kCounter:
          out << family.name << label_block(series.labels) << ' '
              << series.counter_value << '\n';
          break;
        case MetricType::kGauge:
          out << family.name << label_block(series.labels) << ' '
              << series.gauge_value << '\n';
          break;
        case MetricType::kHistogram: {
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < series.histogram.counts.size(); ++i) {
            cumulative += series.histogram.counts[i];
            const std::string le = i < family.bounds.size()
                                       ? std::to_string(family.bounds[i])
                                       : "+Inf";
            out << family.name << "_bucket"
                << label_block(series.labels, "le", le) << ' ' << cumulative
                << '\n';
          }
          out << family.name << "_sum" << label_block(series.labels) << ' '
              << series.histogram.sum << '\n';
          out << family.name << "_count" << label_block(series.labels) << ' '
              << series.histogram.count << '\n';
          break;
        }
      }
    }
  }
  return out.str();
}

std::string render_json(const MetricsRegistry& registry) {
  std::ostringstream out;
  out << "{\"schema_version\":" << kTelemetrySchemaVersion << ",\"families\":[";
  bool first_family = true;
  for (const auto& family : registry.snapshot()) {
    if (!first_family) out << ',';
    first_family = false;
    out << "{\"name\":\"" << json_escape(family.name) << "\",\"type\":\""
        << to_string(family.type) << "\",\"help\":\""
        << json_escape(family.help) << "\",\"series\":[";
    bool first_series = true;
    for (const auto& series : family.series) {
      if (!first_series) out << ',';
      first_series = false;
      out << "{\"labels\":{";
      bool first_label = true;
      for (const auto& [key, value] : series.labels) {
        if (!first_label) out << ',';
        first_label = false;
        out << '"' << json_escape(key) << "\":\"" << json_escape(value)
            << '"';
      }
      out << '}';
      switch (family.type) {
        case MetricType::kCounter:
          out << ",\"value\":" << series.counter_value;
          break;
        case MetricType::kGauge:
          out << ",\"value\":" << series.gauge_value;
          break;
        case MetricType::kHistogram: {
          out << ",\"count\":" << series.histogram.count
              << ",\"sum\":" << series.histogram.sum << ",\"buckets\":[";
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < series.histogram.counts.size(); ++i) {
            if (i) out << ',';
            cumulative += series.histogram.counts[i];
            out << "{\"le\":";
            if (i < family.bounds.size())
              out << family.bounds[i];
            else
              out << "\"+Inf\"";
            out << ",\"count\":" << cumulative << '}';
          }
          out << ']';
          break;
        }
      }
      out << '}';
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

bool write_prometheus_file(const MetricsRegistry& registry,
                           const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  file << render_prometheus(registry);
  return static_cast<bool>(file);
}

}  // namespace saad::obs
