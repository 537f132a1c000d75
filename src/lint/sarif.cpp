#include "lint/sarif.h"

#include <cstdio>
#include <map>
#include <sstream>

#include "common/json.h"
#include "lint/baseline.h"

namespace saad::lint {

namespace {

std::string quoted(std::string_view text) {
  return "\"" + json_escape(text) + "\"";
}

/// SARIF reportingConfiguration.level values.
std::string_view sarif_level(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "warning";
}

}  // namespace

std::string to_json(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const auto& d = diagnostics[i];
    if (i) out << ",";
    out << "\n  {\"rule\":" << quoted(d.rule_id)
        << ",\"severity\":" << quoted(severity_name(d.severity))
        << ",\"file\":" << quoted(d.file) << ",\"line\":" << d.line
        << ",\"column\":" << d.column << ",\"message\":" << quoted(d.message);
    if (!d.fixit.empty()) out << ",\"fixit\":" << quoted(d.fixit);
    out << ",\"fingerprint\":" << quoted(fingerprint(d)) << "}";
  }
  out << "\n]\n";
  return out.str();
}

std::string to_sarif(const std::vector<Diagnostic>& diagnostics) {
  // Rule index for results' ruleIndex back-references.
  std::map<std::string_view, std::size_t> rule_index;
  const auto catalog = rule_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i)
    rule_index[catalog[i].id] = i;

  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"saad_lint\",\n"
      << "          \"version\": \"1.0.0\",\n"
      << "          \"informationUri\": "
         "\"https://example.invalid/saad_lint\",\n"
      << "          \"rules\": [\n";
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const auto& rule = catalog[i];
    out << "            {\"id\": " << quoted(rule.id)
        << ", \"name\": " << quoted(rule.name)
        << ", \"shortDescription\": {\"text\": "
        << quoted(rule.short_description) << "}"
        << ", \"defaultConfiguration\": {\"level\": "
        << quoted(sarif_level(rule.severity)) << "}}"
        << (i + 1 < catalog.size() ? "," : "") << "\n";
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const auto& d = diagnostics[i];
    out << "        {\"ruleId\": " << quoted(d.rule_id);
    if (const auto it = rule_index.find(d.rule_id); it != rule_index.end())
      out << ", \"ruleIndex\": " << it->second;
    out << ", \"level\": " << quoted(sarif_level(d.severity))
        << ", \"message\": {\"text\": " << quoted(d.message) << "}"
        << ", \"locations\": [{\"physicalLocation\": "
        << "{\"artifactLocation\": {\"uri\": " << quoted(d.file) << "}"
        << ", \"region\": {\"startLine\": " << (d.line > 0 ? d.line : 1);
    if (d.column > 0) out << ", \"startColumn\": " << d.column;
    out << "}}}]"
        << ", \"partialFingerprints\": {\"saadLintContent/v1\": "
        << quoted(fingerprint(d)) << "}}"
        << (i + 1 < diagnostics.size() ? "," : "") << "\n";
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace saad::lint
