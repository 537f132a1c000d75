#include "flow/graph_export.h"

#include <cstdio>
#include <sstream>

#include "common/json.h"

namespace saad::flow {

namespace {

std::string dot_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string truncate(std::string text, std::size_t limit) {
  if (text.size() > limit) {
    text.resize(limit - 3);
    text += "...";
  }
  return text;
}

}  // namespace

std::string to_dot(const std::vector<StageFlow>& flows) {
  std::ostringstream out;
  out << "digraph saad_stage_flow {\n"
      << "  rankdir=TB;\n"
      << "  node [shape=box, fontsize=10];\n";
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const StageFlow& g = flows[f];
    out << "  subgraph cluster_" << f << " {\n"
        << "    label=\"" << dot_escape(g.stage) << " (" << dot_escape(g.file)
        << ":" << g.line << ")\";\n";
    for (const FlowNode& node : g.nodes) {
      out << "    n" << f << "_" << node.id << " [label=\"";
      if (node.id == g.entry) {
        out << "entry";
      } else if (node.id == g.exit) {
        out << "exit";
      } else if (node.line > 0) {
        out << "L" << node.line;
        if (node.end_line > node.line) out << "-" << node.end_line;
      } else {
        out << "n" << node.id;
      }
      for (const int p : node.points) {
        out << "\\nlp: "
            << dot_escape(truncate(
                   g.points[static_cast<std::size_t>(p)].template_text, 32));
      }
      out << "\"";
      const auto idx = static_cast<std::size_t>(node.id);
      if (idx < g.reachable.size() && !g.reachable[idx])
        out << ", style=dashed, color=red";
      else if (node.id == g.entry || node.id == g.exit)
        out << ", style=rounded";
      else if (idx < g.error_only.size() && g.error_only[idx])
        out << ", color=orange";
      out << "];\n";
    }
    for (const FlowEdge& e : g.edges) {
      out << "    n" << f << "_" << e.from << " -> n" << f << "_" << e.to;
      if (e.kind != EdgeKind::kNext)
        out << " [label=\"" << edge_kind_name(e.kind) << "\""
            << (e.kind == EdgeKind::kBack ? ", style=dotted" : "") << "]";
      out << ";\n";
    }
    out << "  }\n";
  }
  out << "}\n";
  return out.str();
}

std::string to_json(const std::vector<StageFlow>& flows) {
  std::ostringstream out;
  out << "{\n  \"stages\": [\n";
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const StageFlow& g = flows[f];
    out << "    {\n"
        << "      \"stage\": \"" << json_escape(g.stage) << "\",\n"
        << "      \"file\": \"" << json_escape(g.file) << "\",\n"
        << "      \"line\": " << g.line << ",\n"
        << "      \"explicit_marker\": " << (g.explicit_marker ? "true" : "false")
        << ",\n"
        << "      \"entry\": " << g.entry << ",\n"
        << "      \"exit\": " << g.exit << ",\n";
    out << "      \"nodes\": [";
    for (std::size_t n = 0; n < g.nodes.size(); ++n) {
      const FlowNode& node = g.nodes[n];
      out << (n ? ", " : "") << "{\"id\": " << node.id
          << ", \"line\": " << node.line << ", \"end_line\": " << node.end_line
          << ", \"in_catch\": " << (node.in_catch ? "true" : "false")
          << ", \"reachable\": "
          << (n < g.reachable.size() && g.reachable[n] ? "true" : "false")
          << ", \"in_loop\": "
          << (n < g.in_loop.size() && g.in_loop[n] ? "true" : "false")
          << ", \"error_only\": "
          << (n < g.error_only.size() && g.error_only[n] ? "true" : "false")
          << ", \"idom\": " << (n < g.idom.size() ? g.idom[n] : -1) << "}";
    }
    out << "],\n";
    out << "      \"edges\": [";
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      out << (e ? ", " : "") << "{\"from\": " << g.edges[e].from
          << ", \"to\": " << g.edges[e].to << ", \"kind\": \""
          << edge_kind_name(g.edges[e].kind) << "\"}";
    }
    out << "],\n";
    out << "      \"points\": [";
    for (std::size_t p = 0; p < g.points.size(); ++p) {
      const FlowPoint& point = g.points[p];
      out << (p ? ", " : "") << "{\"node\": " << point.node << ", \"level\": \""
          << json_escape(point.level) << "\", \"template\": \""
          << json_escape(point.template_text) << "\", \"line\": " << point.line
          << "}";
    }
    out << "]\n    }" << (f + 1 < flows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace saad::flow
