// saad_lint — instrumentation static analysis for SAAD-instrumented
// sources: judges what saad_instrument extracts. Runs the rule catalog
// (duplicate templates, stages without log points, dynamic-only templates,
// log points outside stages, unmarked dequeue sites, registry/source
// drift, plus the CFG-aware flow rules SAAD-FL007..FL010) and reports with
// fix-it hints, machine-readable JSON, or SARIF 2.1.0 for CI ingestion. A
// checked-in baseline grandfathers existing findings so only new ones fail
// the build.
//
//   saad_lint [options] <files-or-directories...>
//     --format=text|json|sarif   report format on stdout (default text)
//     --output=FILE              write the report to FILE instead of stdout
//     --baseline=FILE            suppress findings recorded in FILE
//     --write-baseline=FILE      write all current findings to FILE, exit 0
//     --registry=FILE            log-template dictionary (from
//                                `saad_offline record --registry=...`);
//                                enables SAAD-RG006 drift checks
//     --model=FILE               trained model (`saad_offline train`);
//                                checks static×dynamic signature
//                                conformance (requires --registry)
//     --trace=FILE               synopsis trace; adds its observed
//                                signatures to the conformance check
//     --emit-graph=dot|json      write the stage-flow graphs instead of the
//                                lint report
//     --graph-out=FILE           destination for --emit-graph (default
//                                stdout)
//     --dequeue-window=N         SAAD-DQ005 marker distance (default 3)
//     --no-fixits                omit fix-it hints from text output
//
// Exit status: 0 no findings beyond the baseline; 1 new findings or a
// statically impossible trained signature; 2 usage or I/O error.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/log_registry.h"
#include "core/model.h"
#include "core/trace_io.h"
#include "flow/conformance.h"
#include "flow/graph_export.h"
#include "lint/baseline.h"
#include "lint/engine.h"
#include "lint/sarif.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: saad_lint [--format=text|json|sarif] [--output=FILE]\n"
      "                 [--baseline=FILE] [--write-baseline=FILE]\n"
      "                 [--registry=FILE] [--model=FILE] [--trace=FILE]\n"
      "                 [--emit-graph=dot|json] [--graph-out=FILE]\n"
      "                 [--dequeue-window=N] [--no-fixits]\n"
      "                 <files-or-directories...>\n");
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace saad::lint;

  std::string format = "text";
  std::string output_path, baseline_path, write_baseline_path, registry_path;
  std::string model_path, trace_path, emit_graph, graph_out_path;
  bool show_fixits = true;
  RuleOptions options;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json" && format != "sarif")
        return usage();
    } else if (arg.rfind("--output=", 0) == 0) {
      output_path = arg.substr(9);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline_path = arg.substr(17);
    } else if (arg.rfind("--registry=", 0) == 0) {
      registry_path = arg.substr(11);
    } else if (arg.rfind("--model=", 0) == 0) {
      model_path = arg.substr(8);
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--emit-graph=", 0) == 0) {
      emit_graph = arg.substr(13);
      if (emit_graph != "dot" && emit_graph != "json") return usage();
    } else if (arg.rfind("--graph-out=", 0) == 0) {
      graph_out_path = arg.substr(12);
    } else if (arg.rfind("--dequeue-window=", 0) == 0) {
      // Strict checked parse (the saad_offline.cpp pattern): atoi would
      // silently turn garbage into 0 and accept negative distances.
      const std::string v = arg.substr(17);
      long long parsed = 0;
      bool ok = false;
      try {
        std::size_t used = 0;
        parsed = std::stoll(v, &used);
        ok = used == v.size();
      } catch (const std::exception&) {
      }
      if (!ok || parsed < 0 || parsed > 100000) {
        std::fprintf(stderr,
                     "saad_lint: invalid --dequeue-window=%s (expected an "
                     "integer in [0, 100000])\n",
                     v.c_str());
        return usage();
      }
      options.dequeue_marker_window = static_cast<int>(parsed);
    } else if (arg == "--no-fixits") {
      show_fixits = false;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "saad_lint: unknown option %s\n", arg.c_str());
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage();
  if (!model_path.empty() && registry_path.empty()) {
    std::fprintf(stderr, "saad_lint: --model requires --registry\n");
    return usage();
  }
  if (!trace_path.empty() && model_path.empty()) {
    std::fprintf(stderr, "saad_lint: --trace requires --model\n");
    return usage();
  }

  saad::core::LogRegistry registry;
  bool have_registry = false;
  if (!registry_path.empty()) {
    std::string bytes;
    if (!read_file(registry_path, &bytes)) {
      std::fprintf(stderr, "saad_lint: cannot read registry %s\n",
                   registry_path.c_str());
      return 2;
    }
    const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
    if (!registry.load({data, bytes.size()})) {
      std::fprintf(stderr, "saad_lint: malformed registry %s\n",
                   registry_path.c_str());
      return 2;
    }
    have_registry = true;
  }

  std::optional<Baseline> baseline;
  if (!baseline_path.empty()) {
    std::string text;
    if (!read_file(baseline_path, &text)) {
      std::fprintf(stderr, "saad_lint: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    Baseline parsed;
    if (!parse_baseline(text, parsed)) {
      std::fprintf(stderr, "saad_lint: malformed baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    baseline = std::move(parsed);
  }

  std::optional<saad::core::OutlierModel> model;
  if (!model_path.empty()) {
    std::string bytes;
    if (!read_file(model_path, &bytes)) {
      std::fprintf(stderr, "saad_lint: cannot read model %s\n",
                   model_path.c_str());
      return 2;
    }
    const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
    model = saad::core::OutlierModel::load({data, bytes.size()});
    if (!model) {
      std::fprintf(stderr, "saad_lint: malformed model %s\n",
                   model_path.c_str());
      return 2;
    }
  }
  std::optional<std::vector<saad::core::Synopsis>> trace;
  if (!trace_path.empty()) {
    saad::core::TraceStats stats;
    trace = saad::core::read_trace_file(trace_path, &stats);
    if (!trace) {
      std::fprintf(stderr, "saad_lint: cannot read trace %s%s\n",
                   trace_path.c_str(),
                   stats.version == 1
                       ? " (a v1 SAADTRC1 trace, no longer supported)"
                       : "");
      return 2;
    }
  }

  const LintRun run =
      run_lint(paths, have_registry ? &registry : nullptr,
               baseline ? &*baseline : nullptr, options);

  if (!emit_graph.empty()) {
    const std::string graph = emit_graph == "dot"
                                  ? saad::flow::to_dot(run.flows)
                                  : saad::flow::to_json(run.flows);
    if (!graph_out_path.empty()) {
      if (!write_file(graph_out_path, graph)) {
        std::fprintf(stderr, "saad_lint: cannot write %s\n",
                     graph_out_path.c_str());
        return 2;
      }
      std::printf("wrote %zu stage-flow graph(s) to %s\n", run.flows.size(),
                  graph_out_path.c_str());
    } else {
      std::fputs(graph.c_str(), stdout);
    }
    return run.errors.empty() ? 0 : 2;
  }

  if (!write_baseline_path.empty()) {
    const auto serialized = serialize_baseline(make_baseline(run.findings));
    if (!write_file(write_baseline_path, serialized)) {
      std::fprintf(stderr, "saad_lint: cannot write baseline %s\n",
                   write_baseline_path.c_str());
      return 2;
    }
    std::printf("wrote baseline (%zu finding(s)) to %s\n",
                run.findings.size(), write_baseline_path.c_str());
    return 0;
  }

  std::string report;
  if (format == "json") {
    report = to_json(run.fresh);
  } else if (format == "sarif") {
    report = to_sarif(run.fresh);
  } else {
    report = render_text(run, show_fixits);
  }

  if (!output_path.empty()) {
    if (!write_file(output_path, report)) {
      std::fprintf(stderr, "saad_lint: cannot write %s\n",
                   output_path.c_str());
      return 2;
    }
    // Keep the human summary on stdout even when the report goes to a file.
    if (format != "text") std::fputs(render_text(run, false).c_str(), stdout);
  } else {
    std::fputs(report.c_str(), stdout);
  }

  bool conformance_drift = false;
  if (model) {
    const auto conformance = saad::flow::check_conformance(
        run.flows, registry, *model, trace ? &*trace : nullptr);
    std::fputs(saad::flow::render_conformance(conformance).c_str(), stdout);
    conformance_drift = conformance.impossible_total > 0;
  }

  if (!run.errors.empty()) return 2;
  return run.fresh.empty() && !conformance_drift ? 0 : 1;
}
