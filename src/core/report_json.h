// JSON export of anomalies and incidents — the machine-readable side of the
// paper's anomaly reporting, for feeding alerting pipelines (PagerDuty-style
// webhooks, log shippers) instead of humans. Self-contained: no JSON library
// dependency, RFC 8259-conformant escaping.
#pragma once

#include <string>
#include <vector>

#include "common/json.h"
#include "core/detector.h"
#include "core/incidents.h"
#include "core/log_registry.h"

namespace saad::obs {
class MetricsRegistry;
}

namespace saad::core {

/// Options for the batch report overloads.
struct JsonReportOptions {
  /// When set, the report gains a "telemetry" member holding the
  /// schema-versioned obs::render_json() snapshot of this registry, so an
  /// alerting consumer sees the pipeline's own health next to the verdicts.
  const obs::MetricsRegistry* telemetry = nullptr;
};

/// One JSON object per anomaly, e.g.
/// {"window":31,"window_start_us":1860000000,"host":4,"stage":"Table",
///  "kind":"flow","new_signature":true,"p_value":0.0,"outliers":14,"n":120,
///  "signature":[8],"templates":["MemTable is already frozen; ..."]}
std::string to_json(const Anomaly& anomaly, const LogRegistry& registry);

/// {"anomalies":[...]} for a whole batch; with options.telemetry,
/// {"anomalies":[...],"telemetry":{...}}.
std::string to_json(const std::vector<Anomaly>& anomalies,
                    const LogRegistry& registry,
                    const JsonReportOptions& options = {});

/// {"incidents":[...]} — grouped bands (see core/incidents.h); with
/// options.telemetry, {"incidents":[...],"telemetry":{...}}.
std::string to_json(const std::vector<Incident>& incidents,
                    const LogRegistry& registry,
                    const JsonReportOptions& options = {});

/// RFC 8259 string escaping (quotes, backslashes, control characters).
using saad::json_escape;

}  // namespace saad::core
