#include "core/report_json.h"

#include <cstdio>
#include <sstream>

#include "core/report.h"
#include "obs/exposition.h"

namespace saad::core {

namespace {

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void append_signature(std::ostringstream& out, const Signature& signature,
                      const LogRegistry& registry) {
  out << "\"signature\":[";
  for (std::size_t i = 0; i < signature.points().size(); ++i) {
    if (i) out << ',';
    out << signature.points()[i];
  }
  out << "],\"templates\":[";
  const auto templates = signature_templates(signature, registry);
  for (std::size_t i = 0; i < templates.size(); ++i) {
    if (i) out << ',';
    out << '"' << json_escape(templates[i]) << '"';
  }
  out << ']';
}

}  // namespace

std::string to_json(const Anomaly& anomaly, const LogRegistry& registry) {
  std::ostringstream out;
  const std::string stage_name =
      anomaly.stage < registry.num_stages()
          ? registry.stage(anomaly.stage).name
          : "stage#" + std::to_string(anomaly.stage);
  out << "{\"window\":" << anomaly.window
      << ",\"window_start_us\":" << anomaly.window_start
      << ",\"host\":" << anomaly.host << ",\"stage\":\""
      << json_escape(stage_name) << "\",\"kind\":\""
      << (anomaly.kind == AnomalyKind::kFlow ? "flow" : "performance")
      << "\",\"new_signature\":"
      << (anomaly.due_to_new_signature ? "true" : "false")
      << ",\"p_value\":" << number(anomaly.p_value)
      << ",\"proportion\":" << number(anomaly.proportion)
      << ",\"train_proportion\":" << number(anomaly.train_proportion)
      << ",\"outliers\":" << anomaly.outliers << ",\"n\":" << anomaly.n
      << ',';
  append_signature(out, anomaly.example_signature, registry);
  out << '}';
  return out.str();
}

std::string to_json(const std::vector<Anomaly>& anomalies,
                    const LogRegistry& registry,
                    const JsonReportOptions& options) {
  std::ostringstream out;
  out << "{\"anomalies\":[";
  for (std::size_t i = 0; i < anomalies.size(); ++i) {
    if (i) out << ',';
    out << to_json(anomalies[i], registry);
  }
  out << ']';
  if (options.telemetry != nullptr)
    out << ",\"telemetry\":" << obs::render_json(*options.telemetry);
  out << '}';
  return out.str();
}

std::string to_json(const std::vector<Incident>& incidents,
                    const LogRegistry& registry,
                    const JsonReportOptions& options) {
  std::ostringstream out;
  out << "{\"incidents\":[";
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    const auto& incident = incidents[i];
    if (i) out << ',';
    const std::string stage_name =
        incident.stage < registry.num_stages()
            ? registry.stage(incident.stage).name
            : "stage#" + std::to_string(incident.stage);
    out << "{\"first_window\":" << incident.first_window
        << ",\"last_window\":" << incident.last_window
        << ",\"windows_flagged\":" << incident.windows
        << ",\"host\":" << incident.host << ",\"stage\":\""
        << json_escape(stage_name) << "\",\"kind\":\""
        << (incident.kind == AnomalyKind::kFlow ? "flow" : "performance")
        << "\",\"new_signature\":"
        << (incident.any_new_signature ? "true" : "false")
        << ",\"min_p_value\":" << number(incident.min_p_value) << ',';
    append_signature(out, incident.example_signature, registry);
    out << '}';
  }
  out << ']';
  if (options.telemetry != nullptr)
    out << ",\"telemetry\":" << obs::render_json(*options.telemetry);
  out << '}';
  return out.str();
}

}  // namespace saad::core
