// pingpong: closed loop, one message in flight, two nodes of a Cluster,
// unlocked polling calls (the paper's measurement mode). One thread plays
// both applications, so every one-way trip is stamped by one clock: send
// call start to receive return. 64 B and 1024 B messages run on separate
// clusters (a comm buffer has one message size), alternating in seeded
// order inside every trial.
#include <memory>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/flipc/cluster.h"

namespace perfbench {
namespace {

using flipc::Cluster;
using flipc::Endpoint;
using flipc::MessageBuffer;

constexpr std::uint32_t kSizes[2] = {64, 1024};  // message size incl. 8 B header

struct PhaseResult {
  std::vector<double> latency_us;  // measured one-way trips
  double rate = 0;                 // one-way trips per second over the measured interval
  double setup_s = 0;
  bool ok = false;
};

// One direction of a round trip: the sender's endpoint and message buffer,
// and the peer's receive endpoint with the buffer posted on it.
struct Side {
  Endpoint tx;
  Endpoint rx;
  MessageBuffer msg;
  MessageBuffer rx_buffer;
};

class PingPhase {
 public:
  PingPhase(const Payloads& payloads, Report& report, Layers* layers, StageTrace* trace)
      : payloads_(payloads), report_(report), layers_(layers), trace_(trace) {}

  // Sends message (flow, seq) across `side`, polls it in, verifies it,
  // re-posts the receive buffer and reclaims the send buffer. Returns false
  // (after recording the failure) when the trip cannot complete.
  bool OneWay(Side& side, std::uint32_t flow, std::uint32_t seq, bool measured,
              std::vector<double>& latency_us) {
    payloads_.Fill(side.msg, flow, seq);
    const flipc::Address dst = side.rx.address();
    const std::int64_t t1 = NowNs();
    const flipc::Status sent = side.tx.SendUnlocked(side.msg, dst);
    const std::int64_t t2 = NowNs();
    report_.Attempt(1);
    if (!sent.ok()) {
      report_.Fail("pingpong send rejected");
      return false;
    }
    std::int64_t t5 = 0;
    flipc::Result<MessageBuffer> got = flipc::UnavailableStatus();
    for (;;) {
      t5 = NowNs();
      got = side.rx.ReceiveUnlocked();
      if (got.ok()) {
        break;
      }
      if (layers_ != nullptr) {
        ++layers_->empty_polls;
      }
      if (t5 - t2 > kTimeoutNs) {
        report_.Fail("pingpong receive timeout");
        return false;
      }
    }
    const std::int64_t t6 = NowNs();
    if (!payloads_.Verify(*got, flow, seq)) {
      report_.Fail("pingpong payload/FIFO mismatch");
    }
    if (measured) {
      latency_us.push_back(static_cast<double>(t6 - t1) * 1e-3);
    }
    side.rx_buffer = *got;
    const std::int64_t t7 = NowNs();
    if (!side.rx.PostBufferUnlocked(side.rx_buffer).ok()) {
      report_.Fail("pingpong re-post rejected");
      return false;
    }
    const std::int64_t t8 = NowNs();
    std::int64_t t9 = 0;
    for (;;) {
      t9 = NowNs();
      flipc::Result<MessageBuffer> back = side.tx.ReclaimUnlocked();
      if (back.ok()) {
        side.msg = *back;
        break;
      }
      if (t9 - t8 > kTimeoutNs) {
        report_.Fail("pingpong reclaim timeout");
        return false;
      }
    }
    const std::int64_t t10 = NowNs();
    if (layers_ != nullptr) {
      ++layers_->app_msgs;
    }
    if (trace_ != nullptr && measured) {
      trace_->OnSend(flow, seq, t1, t2);
      trace_->OnReceive(flow, seq, t5, t6);
      layers_->send_ns.push_back(static_cast<std::int32_t>(t2 - t1));
      layers_->receive_ns.push_back(static_cast<std::int32_t>(t6 - t5));
      layers_->post_ns.push_back(static_cast<std::int32_t>(t8 - t7));
      layers_->reclaim_ns.push_back(static_cast<std::int32_t>(t10 - t9));
    }
    return true;
  }

 private:
  const Payloads& payloads_;
  Report& report_;
  Layers* layers_;
  StageTrace* trace_;
};

// Builds a two-node cluster of `size`-byte messages, runs round trips for
// `window_ns`, and verifies the whole trial. `layers` collects per-layer
// data (64 B phases only); `traced` installs the stage hooks.
PhaseResult RunPhase(int trial, std::uint32_t size, const Payloads& payloads,
                     std::int64_t window_ns, Report& report, Layers* layers, bool traced) {
  PhaseResult result;
  std::unique_ptr<StageTrace> trace;
  if (traced) {
    trace = std::make_unique<StageTrace>(2);
  }

  const std::int64_t t0 = NowNs();
  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = size;
  options.comm.buffer_count = 64;
  options.comm.max_endpoints = 8;
  auto cluster_or = Cluster::Create(options);
  if (!cluster_or.ok()) {
    report.Fail("pingpong cluster create");
    return result;
  }
  Cluster& cluster = **cluster_or;
  flipc::Domain& d0 = cluster.domain(0);
  flipc::Domain& d1 = cluster.domain(1);
  const flipc::Domain::EndpointOptions send{.type = flipc::shm::EndpointType::kSend,
                                            .queue_depth = 4};
  const flipc::Domain::EndpointOptions recv{.type = flipc::shm::EndpointType::kReceive,
                                            .queue_depth = 4};
  auto tx0 = d0.CreateEndpoint(send);
  auto rx0 = d0.CreateEndpoint(recv);
  auto tx1 = d1.CreateEndpoint(send);
  auto rx1 = d1.CreateEndpoint(recv);
  auto m0 = d0.AllocateBuffer();
  auto r0 = d0.AllocateBuffer();
  auto m1 = d1.AllocateBuffer();
  auto r1 = d1.AllocateBuffer();
  if (!(tx0.ok() && rx0.ok() && tx1.ok() && rx1.ok() && m0.ok() && r0.ok() && m1.ok() &&
        r1.ok())) {
    report.Fail("pingpong endpoint/buffer set-up");
    return result;
  }
  // Side 0 sends node 0 -> node 1 (flow 0); side 1 replies (flow 1).
  Side sides[2] = {{*tx0, *rx1, *m0, *r1}, {*tx1, *rx0, *m1, *r0}};
  if (!sides[0].rx.PostBufferUnlocked(sides[0].rx_buffer).ok() ||
      !sides[1].rx.PostBufferUnlocked(sides[1].rx_buffer).ok()) {
    report.Fail("pingpong initial post");
    return result;
  }
  if (trace != nullptr) {
    for (int s = 0; s < 2; ++s) {
      const flipc::NodeId src = static_cast<flipc::NodeId>(s);
      std::vector<int> src_map(options.comm.max_endpoints, -1);
      std::vector<int> dst_map(options.comm.max_endpoints, -1);
      src_map[sides[s].tx.index()] = s;
      dst_map[sides[s].rx.index()] = s;
      InstallStageHooks(cluster.engine(src), cluster.engine(1 - src), *trace, src_map, dst_map);
    }
  }
  PlaceCurrentThread(trial, /*load=*/false);
  cluster.Start();
  PlaceCurrentThread(trial, /*load=*/true);
  const std::int64_t start = NowNs();
  result.setup_s = static_cast<double>(start - t0) * 1e-9;

  PingPhase phase(payloads, report, layers, trace.get());
  const std::int64_t warm_end = start + kWarmupNs;
  const std::int64_t end = start + window_ns;
  std::uint32_t seq = 0;
  std::uint32_t first_measured = 0;
  std::uint64_t measured_trips = 0;
  std::int64_t measure_start = 0;
  bool ok = true;
  for (;;) {
    const std::int64_t now = NowNs();
    if (now >= end) {
      break;
    }
    const bool measured = now >= warm_end;
    if (measured && measure_start == 0) {
      measure_start = now;
      first_measured = seq;
    }
    if (!phase.OneWay(sides[0], 0, seq, measured, result.latency_us) ||
        !phase.OneWay(sides[1], 1, seq, measured, result.latency_us)) {
      ok = false;
      break;
    }
    if (measured) {
      measured_trips += 2;
    }
    ++seq;
  }
  const std::int64_t measure_end = NowNs();

  const flipc::engine::EngineStats total = FinishClusterTrial(cluster, layers, report);
  for (const Side& side : sides) {
    if (side.rx.DropCount() != 0) {
      report.Fail("pingpong endpoint drops", side.rx.DropCount());
    }
  }
  if (total.messages_delivered != 2ull * seq) {
    report.Fail("pingpong conservation: engines delivered " +
                std::to_string(total.messages_delivered) + ", app sent " +
                std::to_string(2ull * seq));
  }
  if (trace != nullptr && ok) {
    for (std::uint32_t flow = 0; flow < 2; ++flow) {
      if (trace->sent_count(flow) != seq || trace->delivered_count(flow) != seq) {
        report.Fail("pingpong hook counts differ from messages");
      }
      trace->Collect(flow, first_measured, seq, layers->stages);
    }
  }
  if (layers != nullptr) {
    layers->NoteTrialCounts(2ull * seq, total, false, report);
  }
  result.rate = RatePerS(measured_trips, measure_start, measure_end);
  result.ok = ok && measure_start > 0;
  std::fprintf(stderr,
               "pingpong %u B%s: setup %.0f us, %.0f trips/s, p50 %.2f us, p99 %.2f us, "
               "parks %llu/%llu\n",
               size, traced ? " traced" : "", result.setup_s * 1e6, result.rate,
               Percentile(result.latency_us, 0.5), Percentile(result.latency_us, 0.99),
               static_cast<unsigned long long>(cluster.runner(0).idle_parks()),
               static_cast<unsigned long long>(cluster.runner(1).idle_parks()));
  return result;
}

}  // namespace

void RunPingpong(const Options& options, Report& report) {
  const Payloads payloads64(options.seed, kSizes[0] - 8);
  const Payloads payloads1024(options.seed, kSizes[1] - 8);
  flipc::Rng order(options.seed ^ 0x9a9a);
  Layers layers;
  EndToEnd e2e[2];
  std::vector<double> traced_latency, untraced_latency;
  const int trials = TrialCount(options);
  const std::int64_t window = TrialWindowNs(options) / 2;
  for (int t = 0; t < trials; ++t) {
    const bool traced = TrialTraced(options, t);
    const int first = static_cast<int>(order.Below(2));
    for (int i = 0; i < 2; ++i) {
      const int s = (first + i) % 2;
      PhaseResult r = RunPhase(t, kSizes[s], s == 0 ? payloads64 : payloads1024, window,
                               report, s == 0 ? &layers : nullptr, s == 0 && traced);
      if (!r.ok) {
        return;
      }
      if (s == 0 && traced) {
        traced_latency.insert(traced_latency.end(), r.latency_us.begin(), r.latency_us.end());
        continue;
      }
      if (s == 0) {
        untraced_latency.insert(untraced_latency.end(), r.latency_us.begin(),
                                r.latency_us.end());
      }
      e2e[s].AddTrial(r.setup_s, r.rate, r.latency_us);
    }
  }

  e2e[0].Report(report);
  report.Add("oneway_p50_us_64", Median(e2e[0].p50_us), "us", e2e[0].latency_samples);
  report.Add("oneway_p99_us_64", Median(e2e[0].p99_us), "us", e2e[0].latency_samples);
  report.Add("oneway_p50_us_1024", Median(e2e[1].p50_us), "us", e2e[1].latency_samples);
  report.Add("oneway_p99_us_1024", Median(e2e[1].p99_us), "us", e2e[1].latency_samples);
  report.Add("msgs_per_s_1024", Median(e2e[1].rates), "1/s", e2e[1].rates.size());
  if (options.trace) {
    layers.untraced_latency_us = std::move(untraced_latency);
    layers.traced_latency_us = std::move(traced_latency);
    ReportLayers(report, layers);
  }
}

}  // namespace perfbench
