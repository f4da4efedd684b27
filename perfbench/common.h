// Shared pieces of the host-time benchmark: clock, sample summaries, the
// seeded payload scheme every workload sends and verifies, and the report
// that collects metrics and correctness failures.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include "src/base/rng.h"
#include "src/flipc/message_buffer.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
template <typename T>
double Percentile(std::vector<T> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  rank = std::min(rank, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return static_cast<double>(values[rank]);
}

template <typename T>
double Median(const std::vector<T>& values) {
  return Percentile(values, 0.5);
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Thread placement, mirroring a Paragon node's split between the compute
// processor (the application) and the message coprocessor (the engines).
// Trial t runs the load thread on CPU t mod n; threads it starts while
// placed "for the engines" inherit every other CPU. Without the split a
// spinning engine and the spinning load thread can share one CPU for whole
// 4 ms scheduler slices, which turns a trial into a measurement of the
// scheduler. Rotating the load CPU over trials spreads every run over all
// CPUs alike, so a CPU slowed for a while (a busy sibling hyperthread on a
// shared host) weighs the same in every run. A no-op on a single-CPU host.
inline void PlaceCurrentThread(int trial, bool load) {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus < 2 || cpus > CPU_SETSIZE) {
    return;
  }
  const long load_cpu = trial % cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (long c = 0; c < cpus; ++c) {
    if ((c == load_cpu) == load) {
      CPU_SET(static_cast<int>(c), &set);
    }
  }
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Messages per second over the interval [from, to); 0 for an empty one.
inline double RatePerS(std::uint64_t messages, std::int64_t from, std::int64_t to) {
  return Ratio(static_cast<double>(messages), static_cast<double>(to - from) * 1e-9);
}

// Run options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Metrics and correctness ledger for one run. Every metric is printed as a
// human-readable line with its sample count; the last stdout line is a JSON
// object with all of them, which run.py narrows to the set BENCHMARK.json
// names for the run's mode.
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit, std::uint64_t samples) {
    metrics_.push_back({name, value, unit, samples});
  }

  // Records `n` failed messages (drop, FIFO or payload violation, timeout,
  // audit mismatch) with a reason printed to stderr.
  void Fail(const std::string& what, std::uint64_t n = 1) {
    failed_ += n;
    std::fprintf(stderr, "perfbench: FAILURE %s (x%llu)\n", what.c_str(),
                 static_cast<unsigned long long>(n));
  }
  void Attempt(std::uint64_t n) { attempted_ += n; }

  std::uint64_t failed() const { return failed_; }
  std::uint64_t attempted() const { return attempted_; }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-34s = %14.6f %-6s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    }
    std::printf("error_frac = %.9f (failed=%llu attempted=%llu)\n",
                Ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                failed_ == 0 && attempted_ > 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::uint64_t samples;
  };
  std::vector<Metric> metrics_;
  std::uint64_t failed_ = 0;
  std::uint64_t attempted_ = 0;
};

// The seeded payload scheme. A message of flow f with sequence number s
// carries {f, s, check} followed by one of kBodies seeded random bodies,
// chosen by (f, s). The receiver recomputes everything from (f, expected s),
// so a single compare catches reordering (per-flow FIFO), loss, and any
// corrupted byte.
class Payloads {
 public:
  struct Stamp {
    std::uint32_t flow;
    std::uint32_t seq;
    std::uint64_t check;
  };

  Payloads(std::uint64_t seed, std::size_t payload_size) : size_(payload_size) {
    flipc::Rng rng(seed);
    bodies_.resize(kBodies * (payload_size - sizeof(Stamp)));
    for (auto& b : bodies_) {
      b = static_cast<unsigned char>(rng());
    }
    for (auto& k : keys_) {
      k = rng();
    }
  }

  void Fill(flipc::MessageBuffer& buffer, std::uint32_t flow, std::uint32_t seq) const {
    const Stamp stamp{flow, seq, Check(flow, seq)};
    std::memcpy(buffer.data(), &stamp, sizeof(stamp));
    std::memcpy(buffer.data() + sizeof(stamp), Body(flow, seq), size_ - sizeof(stamp));
  }

  // True when `buffer` holds exactly message (flow, seq).
  bool Verify(const flipc::MessageBuffer& buffer, std::uint32_t flow, std::uint32_t seq) const {
    if (buffer.size() != size_) {
      return false;
    }
    Stamp stamp;
    std::memcpy(&stamp, buffer.data(), sizeof(stamp));
    return stamp.flow == flow && stamp.seq == seq && stamp.check == Check(flow, seq) &&
           std::memcmp(buffer.data() + sizeof(stamp), Body(flow, seq),
                       size_ - sizeof(stamp)) == 0;
  }

 private:
  static constexpr std::size_t kBodies = 64;

  std::size_t Index(std::uint32_t flow, std::uint32_t seq) const {
    return (keys_[flow % keys_.size()] ^ (seq * 0x9e3779b97f4a7c15ull)) % kBodies;
  }
  const unsigned char* Body(std::uint32_t flow, std::uint32_t seq) const {
    return bodies_.data() + Index(flow, seq) * (size_ - sizeof(Stamp));
  }
  std::uint64_t Check(std::uint32_t flow, std::uint32_t seq) const {
    return keys_[flow % keys_.size()] * 31 + seq;
  }

  std::size_t size_;
  std::vector<unsigned char> bodies_;
  std::array<std::uint64_t, 16> keys_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
