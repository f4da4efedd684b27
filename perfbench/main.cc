// flipc_hostbench: host-time benchmark of FLIPC's real-thread data path.
//
//   flipc_hostbench --workload <pingpong|stream|rt_mixed|inline_path>
//                   --seed <n> --seconds <s> --trace <0|1>
//
// Prints one line per metric (value, unit, sample count), then a JSON line
// with every metric measured. Exits 1 when any message was dropped, reordered,
// corrupted or timed out, or a counter identity failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/common.h"
#include "perfbench/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: flipc_hostbench --workload <pingpong|stream|rt_mixed|inline_path> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(options.seconds > 0 && options.seconds <= 120)) {
    return Usage();
  }

  perfbench::Report report;
  if (options.workload == "pingpong") {
    perfbench::RunPingpong(options, report);
  } else if (options.workload == "stream") {
    perfbench::RunStream(options, report);
  } else if (options.workload == "rt_mixed") {
    perfbench::RunRtMixed(options, report);
  } else if (options.workload == "inline_path") {
    perfbench::RunInlinePath(options, report);
  } else {
    return Usage();
  }
  report.Print();
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
