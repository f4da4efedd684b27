// Per-layer instrumentation, all of it outside the program: timed calls
// into flipc, engine/runner counters read at quiescence, a timing Wire
// decorator for assemblies that own their fabric, and the telescoping stage
// stamps taken by the engines' observation hooks.
//
// Every workload fills one Layers and reports every per-layer metric, so the
// metric set is the same on each workload; a layer a workload never
// exercises reports 0 (no credit stalls on a pingpong, no Wire decorator
// inside a Cluster).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/engine/engine_runner.h"
#include "src/engine/messaging_engine.h"
#include "src/flipc/cluster.h"
#include "src/flipc/domain.h"
#include "src/shm/telemetry_audit.h"
#include "src/simnet/fabric.h"

namespace perfbench {

// Stamps per flow per trial kept by the traced run (bounded memory).
inline constexpr std::uint32_t kTraceCap = 1u << 16;

// The six instants of one message. Stages telescope: send_call = t2-t1,
// engine_pickup = t3-t2, transit = t4-t3, app_detect = t5-t4,
// receive_call = t6-t5, so their sum is t6-t1 for every message by
// construction.
//   t1 send call start        t2 send return
//   t3 source send-complete   t4 destination delivery   (engine hooks)
//   t5 successful receive call start                  t6 receive return
class StageTrace {
 public:
  explicit StageTrace(std::uint32_t flows)
      : app_(flows, std::vector<AppStamps>(kTraceCap)),
        sent_(flows, std::vector<std::int64_t>(kTraceCap)),
        delivered_(flows, std::vector<std::int64_t>(kTraceCap)),
        sent_count_(flows, 0),
        delivered_count_(flows, 0) {}

  // Hook side: each runs on the engine thread of its node and is the only
  // writer of its arrays; the app reads them only after the engines stop.
  void OnSendComplete(std::uint32_t flow) {
    const std::uint64_t k = sent_count_[flow]++;
    if (k < kTraceCap) {
      sent_[flow][k] = NowNs();
    }
  }
  // A discarded message (delivered == false) is not stamped; the trial's
  // drop checks fail it.
  void OnDeliver(std::uint32_t flow, bool delivered) {
    if (!delivered) {
      return;
    }
    const std::uint64_t k = delivered_count_[flow]++;
    if (k < kTraceCap) {
      delivered_[flow][k] = NowNs();
    }
  }

  // App side.
  void OnSend(std::uint32_t flow, std::uint32_t seq, std::int64_t t1, std::int64_t t2) {
    if (seq < kTraceCap) {
      app_[flow][seq].t1 = t1;
      app_[flow][seq].t2 = t2;
    }
  }
  void OnReceive(std::uint32_t flow, std::uint32_t seq, std::int64_t t5, std::int64_t t6) {
    if (seq < kTraceCap) {
      app_[flow][seq].t5 = t5;
      app_[flow][seq].t6 = t6;
    }
  }

  std::uint64_t sent_count(std::uint32_t flow) const { return sent_count_[flow]; }
  std::uint64_t delivered_count(std::uint32_t flow) const { return delivered_count_[flow]; }

  // Appends the stages of messages [from, to) of `flow` to the samples.
  struct Samples {
    std::vector<std::int64_t> stage[5];
    std::vector<std::int64_t> e2e;
    std::uint64_t out_of_order = 0;
  };
  void Collect(std::uint32_t flow, std::uint32_t from, std::uint32_t to, Samples& out) const {
    to = std::min<std::uint32_t>(to, kTraceCap);
    for (std::uint32_t k = from; k < to; ++k) {
      const AppStamps& a = app_[flow][k];
      const std::int64_t t[6] = {a.t1, a.t2, sent_[flow][k], delivered_[flow][k], a.t5, a.t6};
      bool ordered = true;
      for (int s = 0; s < 5; ++s) {
        const std::int64_t d = t[s + 1] - t[s];
        ordered = ordered && d >= 0;
        out.stage[s].push_back(d);
      }
      out.e2e.push_back(a.t6 - a.t1);
      out.out_of_order += ordered ? 0 : 1;
    }
  }

 private:
  struct AppStamps {
    std::int64_t t1 = 0, t2 = 0, t5 = 0, t6 = 0;
  };
  std::vector<std::vector<AppStamps>> app_;
  std::vector<std::vector<std::int64_t>> sent_;
  std::vector<std::vector<std::int64_t>> delivered_;
  std::vector<std::uint64_t> sent_count_;
  std::vector<std::uint64_t> delivered_count_;
};

// Installs the stage hooks on a source and a destination engine. `flow_of`
// maps an endpoint index to its traced flow (-1 = untraced, e.g. credit
// endpoints). Must be called while the engines are not running.
inline void InstallStageHooks(flipc::engine::MessagingEngine& src,
                              flipc::engine::MessagingEngine& dst, StageTrace& trace,
                              std::vector<int> src_flow_of, std::vector<int> dst_flow_of) {
  src.SetSendCompleteHook([&trace, map = std::move(src_flow_of)](std::uint32_t endpoint) {
    if (endpoint < map.size() && map[endpoint] >= 0) {
      trace.OnSendComplete(static_cast<std::uint32_t>(map[endpoint]));
    }
  });
  dst.SetReceiveHook(
      [&trace, map = std::move(dst_flow_of)](std::uint32_t endpoint, bool delivered) {
        if (endpoint < map.size() && map[endpoint] >= 0) {
          trace.OnDeliver(static_cast<std::uint32_t>(map[endpoint]), delivered);
        }
      });
}

// Audits the telemetry counter identities of a quiescent domain; every
// mismatched endpoint is a failure.
inline void AuditDomain(flipc::Domain& domain, Report& report) {
  std::vector<flipc::shm::EndpointIdentityFailure> failures;
  flipc::shm::AuditTelemetryIdentities(domain.comm(), &failures);
  for (const auto& f : failures) {
    report.Fail("telemetry identity on node " + std::to_string(domain.node()) + " endpoint " +
                std::to_string(f.endpoint) + ": " + f.identity + " (" + std::to_string(f.lhs) +
                " vs " + std::to_string(f.rhs) + ")");
  }
}

// Engine-level conservation over a finished trial's nodes: every packet an
// engine put on the wire was delivered or dropped by the receiving engine.
inline void CheckConservation(const flipc::engine::EngineStats& total, Report& report) {
  const std::uint64_t accounted =
      total.messages_delivered + total.drops_no_buffer + total.drops_bad_address;
  if (total.messages_sent != accounted) {
    report.Fail("engine conservation: sent " + std::to_string(total.messages_sent) +
                " != delivered+dropped " + std::to_string(accounted));
  }
  if (total.drops_no_buffer + total.drops_bad_address != 0) {
    report.Fail("engine drops", total.drops_no_buffer + total.drops_bad_address);
  }
}

// Everything the per-layer report needs, accumulated over a run's trials.
struct Layers {
  // flipc: per-call host time of the app's calls (traced trials).
  std::vector<std::int32_t> send_ns, receive_ns, post_ns, reclaim_ns;
  std::uint64_t empty_polls = 0;  // receive polls that found nothing
  std::uint64_t app_msgs = 0;     // data messages the app received (all trials)
  // engine (inline_path times Step itself).
  std::vector<std::int32_t> step_tx_ns, step_rx_ns;
  std::uint64_t idle_parks = 0, kicks = 0;
  flipc::engine::EngineStats stats;  // summed over nodes and trials
  std::uint64_t deadline_misses = 0, rt_msgs = 0;
  // simnet (Wire decorator; inbox depth also sampled inside a Cluster).
  std::vector<std::int32_t> wire_send_ns, wire_poll_ns;
  std::vector<std::uint32_t> inbox_depth;
  std::uint64_t wire_polls = 0, wire_empty_polls = 0;
  // flow.
  std::uint64_t credit_stalls = 0, credit_msgs = 0, flow_msgs = 0;
  std::vector<double> zero_credit_us;
  // loadgen (open loop only).
  std::vector<double> lag_us;
  // Traced stages and the traced/untraced latency pair.
  StageTrace::Samples stages;
  std::vector<double> traced_latency_us, untraced_latency_us;
  // Exact per-trial counts (first trial; later trials must match on the
  // deterministic inline_path).
  bool have_counts = false;
  std::uint64_t count_delivered = 0, count_batches = 0, count_visits = 0, count_sweeps = 0,
                count_wire_packets = 0;

  // Records one trial's exact counts; on a deterministic workload every
  // trial must repeat the first one's.
  void NoteTrialCounts(std::uint64_t delivered, const flipc::engine::EngineStats& trial,
                       bool deterministic, Report& report) {
    const std::uint64_t now[5] = {delivered, trial.transmit_batches, trial.endpoints_visited,
                                  trial.backstop_sweeps, trial.messages_sent};
    std::uint64_t* kept[5] = {&count_delivered, &count_batches, &count_visits, &count_sweeps,
                              &count_wire_packets};
    for (int i = 0; i < 5; ++i) {
      if (!have_counts) {
        *kept[i] = now[i];
      } else if (deterministic && *kept[i] != now[i]) {
        report.Fail("per-trial count " + std::to_string(i) + " changed between trials: " +
                    std::to_string(*kept[i]) + " then " + std::to_string(now[i]));
      }
    }
    have_counts = true;
  }
};

// Stops a Cluster trial, checks engine conservation and the telemetry
// identities of every node, and returns the trial's summed engine counters.
// With `layers`, the engine and runner counters are folded into it.
inline flipc::engine::EngineStats FinishClusterTrial(flipc::Cluster& cluster, Layers* layers,
                                                     Report& report) {
  cluster.Stop();
  flipc::engine::EngineStats total;
  std::fprintf(stderr, "  engine idle parks / kicks:");
  for (flipc::NodeId n = 0; n < cluster.node_count(); ++n) {
    std::fprintf(stderr, " node %u %llu / %llu;", n,
                 static_cast<unsigned long long>(cluster.runner(n).idle_parks()),
                 static_cast<unsigned long long>(cluster.runner(n).kicks()));
    total.Add(cluster.aggregate_stats(n));
    if (layers != nullptr) {
      layers->idle_parks += cluster.runner(n).idle_parks();
      layers->kicks += cluster.runner(n).kicks();
    }
  }
  std::fprintf(stderr, "\n");
  if (layers != nullptr) {
    layers->stats.Add(total);
  }
  CheckConservation(total, report);
  for (flipc::NodeId n = 0; n < cluster.node_count(); ++n) {
    AuditDomain(cluster.domain(n), report);
  }
  return total;
}

// A timing decorator for one node's Wire (inline_path owns its fabric, so it
// can hand the engines this instead of the raw ThreadFabric wire).
class TimedWire final : public flipc::simnet::Wire {
 public:
  TimedWire(flipc::simnet::Wire& inner, Layers& layers) : inner_(inner), layers_(layers) {}

  flipc::Status Send(flipc::simnet::Packet packet) override {
    const std::int64_t t0 = NowNs();
    const flipc::Status status = inner_.Send(std::move(packet));
    layers_.wire_send_ns.push_back(static_cast<std::int32_t>(NowNs() - t0));
    return status;
  }
  bool Poll(flipc::simnet::Packet* out) override {
    const std::int64_t t0 = NowNs();
    const bool got = inner_.Poll(out);
    const std::int64_t dt = NowNs() - t0;
    ++layers_.wire_polls;
    if (got) {
      layers_.wire_poll_ns.push_back(static_cast<std::int32_t>(dt));
      layers_.inbox_depth.push_back(static_cast<std::uint32_t>(inner_.PendingCount() + 1));
    } else {
      ++layers_.wire_empty_polls;
    }
    return got;
  }
  std::size_t PendingCount() const override { return inner_.PendingCount(); }
  flipc::NodeId node() const override { return inner_.node(); }

 private:
  flipc::simnet::Wire& inner_;
  Layers& layers_;
};

// Summaries over a run's untraced trials.
//   setup_s     median set-up time over trials;
//   msg_p50_us  median over trials of each trial's median latency;
//   msgs_per_s  median over trials of each trial's delivered rate: measured
//               messages delivered over the trial's measured interval, so
//               every park and stall in the interval lowers it;
//   tail.*      median over trials of each trial's p90 and p99 latency.
// Only setup_s and msg_p50_us are bounded (BENCHMARK.json end_to_end). On a
// shared 4-vCPU host the delivered rate and the tail of the Cluster
// workloads are set by how fast the host reschedules a parked engine's vCPU
// as much as by FLIPC, and their run-to-run spread is wider than any bound
// that could catch a regression; they are reported with the traced run.
struct EndToEnd {
  std::vector<double> setup_s, rates, p50_us, p90_us, p99_us;
  std::uint64_t latency_samples = 0;

  void AddTrial(double setup, double rate, const std::vector<double>& latency_us) {
    setup_s.push_back(setup);
    rates.push_back(rate);
    p50_us.push_back(Percentile(latency_us, 0.50));
    p90_us.push_back(Percentile(latency_us, 0.90));
    p99_us.push_back(Percentile(latency_us, 0.99));
    latency_samples += latency_us.size();
  }

  void Report(perfbench::Report& report) const {
    report.Add("setup_s", Median(setup_s), "s", setup_s.size());
    report.Add("msgs_per_s", Median(rates), "1/s", rates.size());
    report.Add("msg_p50_us", Median(p50_us), "us", latency_samples);
    report.Add("tail.msg_p90_us", Median(p90_us), "us", latency_samples);
    report.Add("tail.msg_p99_us", Median(p99_us), "us", latency_samples);
  }
};

// Reports every per-layer metric (traced runs).
inline void ReportLayers(Report& report, const Layers& l) {
  const double msgs = static_cast<double>(l.app_msgs);
  report.Add("flipc.send_ns", Median(l.send_ns), "ns", l.send_ns.size());
  report.Add("flipc.receive_ns", Median(l.receive_ns), "ns", l.receive_ns.size());
  report.Add("flipc.post_ns", Median(l.post_ns), "ns", l.post_ns.size());
  report.Add("flipc.reclaim_ns", Median(l.reclaim_ns), "ns", l.reclaim_ns.size());
  report.Add("flipc.empty_polls_per_msg", Ratio(static_cast<double>(l.empty_polls), msgs),
             "count", l.app_msgs);

  const auto& s = l.stats;
  report.Add("engine.step_tx_ns", Median(l.step_tx_ns), "ns", l.step_tx_ns.size());
  report.Add("engine.step_rx_ns", Median(l.step_rx_ns), "ns", l.step_rx_ns.size());
  report.Add("engine.idle_parks_per_msg", Ratio(static_cast<double>(l.idle_parks), msgs),
             "count", l.app_msgs);
  report.Add("engine.kicks_per_msg", Ratio(static_cast<double>(l.kicks), msgs), "count",
             l.app_msgs);
  report.Add("engine.msgs_per_batch",
             Ratio(static_cast<double>(s.batched_messages), static_cast<double>(s.transmit_batches)),
             "count", s.transmit_batches);
  report.Add("engine.visits_per_msg",
             Ratio(static_cast<double>(s.endpoints_visited), static_cast<double>(s.messages_sent)),
             "count", s.messages_sent);
  report.Add("engine.backstop_sweeps_per_kmsg",
             1000.0 * Ratio(static_cast<double>(s.backstop_sweeps),
                            static_cast<double>(s.messages_sent)),
             "count", s.messages_sent);
  report.Add("engine.deadline_miss_frac",
             Ratio(static_cast<double>(l.deadline_misses), static_cast<double>(l.rt_msgs)),
             "count", l.rt_msgs);

  report.Add("simnet.send_ns", Median(l.wire_send_ns), "ns", l.wire_send_ns.size());
  report.Add("simnet.poll_ns", Median(l.wire_poll_ns), "ns", l.wire_poll_ns.size());
  report.Add("simnet.inbox_depth_p99", Percentile(l.inbox_depth, 0.99), "count",
             l.inbox_depth.size());
  report.Add("simnet.empty_poll_frac",
             Ratio(static_cast<double>(l.wire_empty_polls), static_cast<double>(l.wire_polls)),
             "count", l.wire_polls);

  const double flow_msgs = static_cast<double>(l.flow_msgs);
  report.Add("flow.credit_stalls_per_kmsg",
             1000.0 * Ratio(static_cast<double>(l.credit_stalls), flow_msgs), "count",
             l.flow_msgs);
  report.Add("flow.credit_msgs_per_msg", Ratio(static_cast<double>(l.credit_msgs), flow_msgs),
             "count", l.flow_msgs);
  report.Add("flow.zero_credit_us_p99", Percentile(l.zero_credit_us, 0.99), "us",
             l.zero_credit_us.size());

  report.Add("loadgen.lag_p99_us", Percentile(l.lag_us, 0.99), "us", l.lag_us.size());

  static const char* const kStageNames[5] = {"stage.send_call_ns", "stage.engine_pickup_ns",
                                             "stage.transit_ns", "stage.app_detect_ns",
                                             "stage.receive_call_ns"};
  const auto& st = l.stages;
  for (int i = 0; i < 5; ++i) {
    report.Add(kStageNames[i], Median(st.stage[i]), "ns", st.stage[i].size());
  }
  report.Add("stage.e2e_ns", Median(st.e2e), "ns", st.e2e.size());
  report.Add("stage.out_of_order_frac",
             Ratio(static_cast<double>(st.out_of_order), static_cast<double>(st.e2e.size())),
             "count", st.e2e.size());
  if (st.e2e.empty()) {
    report.Fail("traced run stamped no message");
  }

  const double traced = Median(l.traced_latency_us);
  const double untraced = Median(l.untraced_latency_us);
  report.Add("trace.overhead_us", traced - untraced, "us", l.traced_latency_us.size());

  report.Add("count.delivered_per_trial", static_cast<double>(l.count_delivered), "count", 1);
  report.Add("count.batches_per_trial", static_cast<double>(l.count_batches), "count", 1);
  report.Add("count.visits_per_trial", static_cast<double>(l.count_visits), "count", 1);
  report.Add("count.sweeps_per_trial", static_cast<double>(l.count_sweeps), "count", 1);
  report.Add("count.wire_packets_per_trial", static_cast<double>(l.count_wire_packets),
             "count", 1);
}

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
