// The benchmark's workloads. Each runs trials until its share of
// --seconds is used, checks its own outputs, and adds its metrics and
// failures to the report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cmath>

#include "perfbench/common.h"

namespace perfbench {

// Trials per run and the measured window of each (wall time after set-up).
// Every trial builds a fresh assembly, so each run also yields one set-up
// sample and one throughput sample per trial; medians over trials keep a
// single slow trial (an unlucky thread placement) from moving the result.
inline int TrialCount(const Options& o) {
  return std::max(4, static_cast<int>(std::lround(o.seconds)));
}
inline std::int64_t TrialWindowNs(const Options& o) {
  return static_cast<std::int64_t>(o.seconds * 1e9 / TrialCount(o));
}

// Traced runs alternate untraced and traced trials, so the tracing overhead
// is measured inside one run.
inline bool TrialTraced(const Options& o, int trial) { return o.trace && trial % 2 == 1; }

// Messages received in the first part of every trial are warm-up: they are
// checked but not timed.
inline constexpr std::int64_t kWarmupNs = 50'000'000;

// A message not seen within this long is a timeout failure.
inline constexpr std::int64_t kTimeoutNs = 2'000'000'000;

void RunPingpong(const Options& options, Report& report);
void RunStream(const Options& options, Report& report);
void RunRtMixed(const Options& options, Report& report);
void RunInlinePath(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
