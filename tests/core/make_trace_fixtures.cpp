// Writes the trace files the `saad_offline info` CLI tests read:
//
//   span0.trc   two synopses, starting at 0 s and at 120 s with no duration:
//               the trace spans 2.0 minutes from a start time of 0 us
//
//   make_trace_fixtures <output-dir>
#include <cstdio>
#include <string>

#include "core/synopsis.h"
#include "core/trace_io.h"

int main(int argc, char** argv) {
  using namespace saad;
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_trace_fixtures <output-dir>\n");
    return 2;
  }
  core::TraceWriter writer(std::string(argv[1]) + "/span0.trc");
  for (const UsTime start : {UsTime{0}, minutes(2)}) {
    core::Synopsis s;
    s.stage = 1;
    s.start = start;
    s.log_points.push_back({1, 1});
    writer.append(s);
  }
  return writer.finalize() ? 0 : 1;
}
