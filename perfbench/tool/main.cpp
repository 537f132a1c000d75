// perfbench_tool: the compiled half of the SAAD benchmark (run.py is the
// entry point). Subcommands:
//
//   gen-wide        write the synthetic many-key training and detect traces
//   send            open-loop sender for the serve-wide workload
//   staged-server   the tracker-microtask workload (and its traced run)
//   layers          traced in-process replay of the trace-driven workloads
//   spawn           run a command; report its wall, CPU and peak RSS
//   fingerprint     compiler and build settings of this binary
//
// Every subcommand but spawn (whose stdout is the command's) prints one JSON
// object as its last stdout line.
#include <cstdio>
#include <string>

#include "common.h"
#include "obs/metrics.h"

namespace perfbench {
int cmd_gen_wide(const Args& args);
int cmd_send(const Args& args);
int cmd_staged_server(const Args& args);
int cmd_layers(const Args& args);
int cmd_spawn(int argc, char** argv, const Args& args);
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string command = argc > 1 ? argv[1] : "";
  const Args args(argc, argv);
  if (command == "gen-wide") return cmd_gen_wide(args);
  if (command == "send") return cmd_send(args);
  if (command == "staged-server") return cmd_staged_server(args);
  if (command == "layers") return cmd_layers(args);
  if (command == "spawn") return cmd_spawn(argc, argv, args);
  if (command == "fingerprint") {
    JsonOut out;
    out.str("compiler", __VERSION__);
    out.num("saad_metrics", saad::obs::kMetricsEnabled ? 1 : 0);
#ifdef __OPTIMIZE__
    out.num("optimized", 1);
#else
    out.num("optimized", 0);
#endif
    std::printf("%s\n", out.text().c_str());
    return 0;
  }
  std::fprintf(stderr,
               "usage: perfbench_tool gen-wide|send|staged-server|layers|"
               "spawn|fingerprint [--key=value ...]\n");
  return 2;
}
