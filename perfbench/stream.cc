// Windowed workloads over a Cluster: every flow is a WindowSender on node 0
// and a WindowReceiver on node 1 (src/flow), so in-flight messages never
// exceed posted buffers and zero drops hold by construction.
//
//   stream    one saturating 64 B flow (window 64, credit batch 16). At the
//             smallest size per-message cost dominates; it exercises the
//             credit loop, wire queueing and engine busy/park churn.
//   rt_mixed  open loop: one real-time flow (deadline set, weight-4 QoS
//             class, 10k msg/s on a fixed schedule) shares node 0's engine
//             with 7 saturating bulk flows in class 0. RT latency is timed
//             from each message's due time, so a late generator or a stalled
//             engine both show.
//
// One thread plays both applications; the only other threads are the two
// engine runners.
#include <memory>
#include <optional>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/flipc/cluster.h"
#include "src/flow/window_channel.h"

namespace perfbench {
namespace {

using flipc::Cluster;
using flipc::Domain;
using flipc::Endpoint;
using flipc::MessageBuffer;
using flipc::flow::WindowReceiver;
using flipc::flow::WindowSender;

struct FlowConfig {
  std::uint32_t window = 64;
  std::uint32_t batch = 16;
  std::uint32_t qos_class = 0;
  std::uint32_t deadline_ns = 0;
};

// One windowed flow and the app-side ledger that checks it.
struct Flow {
  std::uint32_t id = 0;
  Endpoint data_tx, credit_rx, data_rx, credit_tx;
  std::optional<WindowSender> sender;
  std::optional<WindowReceiver> receiver;
  std::vector<MessageBuffer> free;   // node 0 send buffers not in flight
  std::vector<std::int64_t> origin;  // latency origin by seq % size
  std::uint32_t sent = 0;
  std::uint32_t received = 0;
  std::uint32_t first_measured = 0;  // first seq whose origin is after warm-up
  bool have_first_measured = false;
  bool stalled = false;
  std::int64_t stall_start = 0;
};

// Creates the flow's four endpoints, its window pair and 2 * window send
// buffers.
std::unique_ptr<Flow> MakeFlow(Domain& a, Domain& b, std::uint32_t id, const FlowConfig& c) {
  auto flow = std::make_unique<Flow>();
  flow->id = id;
  const std::uint32_t credit_depth = std::max<std::uint32_t>(4, 2 * c.window / c.batch);
  auto data_tx = a.CreateEndpoint({.type = flipc::shm::EndpointType::kSend,
                                   .queue_depth = 2 * c.window,
                                   .qos_class = c.qos_class,
                                   .deadline_ns = c.deadline_ns});
  auto credit_rx =
      a.CreateEndpoint({.type = flipc::shm::EndpointType::kReceive, .queue_depth = credit_depth});
  auto data_rx =
      b.CreateEndpoint({.type = flipc::shm::EndpointType::kReceive, .queue_depth = c.window});
  auto credit_tx =
      b.CreateEndpoint({.type = flipc::shm::EndpointType::kSend, .queue_depth = credit_depth});
  if (!(data_tx.ok() && credit_rx.ok() && data_rx.ok() && credit_tx.ok())) {
    return nullptr;
  }
  flow->data_tx = *data_tx;
  flow->credit_rx = *credit_rx;
  flow->data_rx = *data_rx;
  flow->credit_tx = *credit_tx;
  auto receiver =
      WindowReceiver::Create(b, *data_rx, *credit_tx, credit_rx->address(), c.window, c.batch);
  auto sender = WindowSender::Create(a, *data_tx, *credit_rx, data_rx->address(), c.window);
  if (!receiver.ok() || !sender.ok()) {
    return nullptr;
  }
  flow->receiver.emplace(std::move(*receiver));
  flow->sender.emplace(std::move(*sender));
  for (std::uint32_t i = 0; i < 2 * c.window; ++i) {
    auto buffer = a.AllocateBuffer();
    if (!buffer.ok()) {
      return nullptr;
    }
    flow->free.push_back(*buffer);
  }
  flow->origin.resize(2 * c.window);
  return flow;
}

// One trial: a fresh two-node cluster carrying `configs.size()` flows.
class FlowTrial {
 public:
  FlowTrial(const Payloads& payloads, Report& report, Layers* layers, bool traced)
      : payloads_(payloads), report_(report), layers_(layers) {
    if (traced) {
      trace_ = std::make_unique<StageTrace>(kMaxFlows);
    }
  }

  // Builds and starts the cluster; returns false after recording a failure.
  bool SetUp(int trial, const std::vector<FlowConfig>& configs,
             const std::array<std::uint32_t, 4>& qos_weights) {
    const std::int64_t t0 = NowNs();
    Cluster::Options options;
    options.node_count = 2;
    options.comm.message_size = 64;
    options.comm.buffer_count = 1024;
    options.comm.max_endpoints = 64;
    options.engine.qos_weights = qos_weights;
    auto cluster = Cluster::Create(options);
    if (!cluster.ok()) {
      report_.Fail("flow cluster create");
      return false;
    }
    cluster_ = std::move(*cluster);
    for (std::uint32_t i = 0; i < configs.size(); ++i) {
      flows_.push_back(MakeFlow(cluster_->domain(0), cluster_->domain(1), i, configs[i]));
      if (flows_.back() == nullptr) {
        report_.Fail("flow set-up");
        return false;
      }
    }
    if (trace_ != nullptr) {
      std::vector<int> src_map(options.comm.max_endpoints, -1);
      std::vector<int> dst_map(options.comm.max_endpoints, -1);
      for (const auto& f : flows_) {
        src_map[f->data_tx.index()] = static_cast<int>(f->id);
        dst_map[f->data_rx.index()] = static_cast<int>(f->id);
      }
      InstallStageHooks(cluster_->engine(0), cluster_->engine(1), *trace_, src_map, dst_map);
    }
    PlaceCurrentThread(trial, /*load=*/false);
    cluster_->Start();
    PlaceCurrentThread(trial, /*load=*/true);
    start_ = NowNs();
    setup_s_ = static_cast<double>(start_ - t0) * 1e-9;
    warm_end_ = start_ + kWarmupNs;
    return true;
  }

  Flow& flow(std::uint32_t i) { return *flows_[i]; }
  std::int64_t start() const { return start_; }
  std::int64_t warm_end() const { return warm_end_; }
  double setup_s() const { return setup_s_; }

  // Sends flow f's next message if it has a credit and a free buffer.
  // `origin` is the latency origin (0 = the send call start). Returns
  // whether a message was sent.
  bool TrySend(Flow& f, std::int64_t origin = 0) {
    if (f.free.empty()) {
      for (;;) {
        const std::int64_t t9 = NowNs();
        flipc::Result<MessageBuffer> back = f.sender->Reclaim();
        if (!back.ok()) {
          break;
        }
        if (tracing()) {
          layers_->reclaim_ns.push_back(static_cast<std::int32_t>(NowNs() - t9));
        }
        f.free.push_back(*back);
      }
      if (f.free.empty()) {
        return false;
      }
    }
    MessageBuffer& buffer = f.free.back();
    payloads_.Fill(buffer, f.id, f.sent);
    const std::int64_t t1 = NowNs();
    const flipc::Status status = f.sender->Send(buffer);
    const std::int64_t t2 = NowNs();
    if (!status.ok()) {
      if (f.sender->credits() != 0) {
        report_.Fail("flow send rejected with credits left");
      } else if (!f.stalled) {
        f.stalled = true;
        f.stall_start = t1;
      }
      return false;
    }
    if (f.stalled) {
      f.stalled = false;
      if (layers_ != nullptr && t1 >= warm_end_) {
        ++layers_->credit_stalls;
        layers_->zero_credit_us.push_back(static_cast<double>(t1 - f.stall_start) * 1e-3);
      }
    }
    f.free.pop_back();
    const std::int64_t o = origin != 0 ? origin : t1;
    f.origin[f.sent % f.origin.size()] = o;
    if (!f.have_first_measured && o >= warm_end_) {
      f.have_first_measured = true;
      f.first_measured = f.sent;
    }
    if (tracing() && o >= warm_end_) {
      trace_->OnSend(f.id, f.sent, t1, t2);
      layers_->send_ns.push_back(static_cast<std::int32_t>(t2 - t1));
    }
    ++f.sent;
    report_.Attempt(1);
    return true;
  }

  // Receives and releases up to `max` messages flow f has ready. Latencies
  // of messages whose origin is after warm-up go to `latency_us`; returns
  // the number of such messages.
  std::uint32_t Drain(Flow& f, std::vector<double>* latency_us, std::uint32_t max = ~0u) {
    std::uint32_t measured = 0;
    for (std::uint32_t n = 0; n < max; ++n) {
      const std::int64_t t5 = NowNs();
      flipc::Result<MessageBuffer> got = f.receiver->Receive();
      if (!got.ok()) {
        if (layers_ != nullptr) {
          ++layers_->empty_polls;
        }
        return measured;
      }
      const std::int64_t t6 = NowNs();
      const std::uint32_t seq = f.received++;
      if (!payloads_.Verify(*got, f.id, seq)) {
        report_.Fail("flow " + std::to_string(f.id) + " payload/FIFO mismatch at " +
                     std::to_string(seq));
      }
      const std::int64_t origin = f.origin[seq % f.origin.size()];
      const bool is_measured = origin >= warm_end_;
      if (is_measured) {
        ++measured;
        if (latency_us != nullptr) {
          latency_us->push_back(static_cast<double>(t6 - origin) * 1e-3);
        }
      }
      if (layers_ != nullptr) {
        ++layers_->app_msgs;
      }
      const bool stamp = tracing() && is_measured;
      if (stamp) {
        trace_->OnReceive(f.id, seq, t5, t6);
        layers_->receive_ns.push_back(static_cast<std::int32_t>(t6 - t5));
        layers_->inbox_depth.push_back(static_cast<std::uint32_t>(
            cluster_->engine(1).wire_for_protocols().PendingCount()));
      }
      const std::int64_t t7 = NowNs();
      if (!f.receiver->Release(*got).ok()) {
        report_.Fail("flow release (re-post/credit) rejected");
      }
      if (stamp) {
        layers_->post_ns.push_back(static_cast<std::int32_t>(NowNs() - t7));
      }
    }
    return measured;
  }

  // Receives until every sent message arrived and every credit message the
  // receivers released has been delivered back to node 0, so the engines
  // are quiescent when the trial stops; false on timeout.
  bool DrainAll() {
    const std::int64_t deadline = NowNs() + kTimeoutNs;
    for (;;) {
      bool done = true;
      for (auto& f : flows_) {
        Drain(*f, nullptr);
        const std::uint64_t credits_released =
            cluster_->domain(1).comm().telemetry(f->credit_tx.index()).api_sends.Read();
        done = done && f->received == f->sent &&
               f->credit_tx.ProcessedCount() == credits_released &&
               f->credit_rx.ProcessedCount() == credits_released;
      }
      if (done) {
        return true;
      }
      if (NowNs() > deadline) {
        for (auto& f : flows_) {
          if (f->received != f->sent) {
            report_.Fail("flow " + std::to_string(f->id) + " timeout: messages missing",
                         f->sent - f->received);
          } else {
            report_.Fail("flow " + std::to_string(f->id) + " timeout: credit messages missing");
          }
        }
        return false;
      }
    }
  }

  // Stops the cluster and checks the trial: app-level conservation and zero
  // drops per flow, engine conservation, telemetry identities, hook counts.
  // Collects stage samples and per-layer counters.
  void Finish(std::uint32_t rt_flow = kNoRtFlow) {
    const flipc::engine::EngineStats total = FinishClusterTrial(*cluster_, layers_, report_);
    std::uint64_t credit_msgs = 0;
    std::uint64_t data_msgs = 0;
    for (auto& f : flows_) {
      const std::uint64_t drops = f->data_rx.DropCount() + f->credit_rx.DropCount();
      if (drops != 0) {
        report_.Fail("flow " + std::to_string(f->id) + " drops", drops);
      }
      if (f->data_rx.ProcessedCount() != f->sent) {
        report_.Fail("flow " + std::to_string(f->id) + " conservation: delivered " +
                     std::to_string(f->data_rx.ProcessedCount()) + " of " +
                     std::to_string(f->sent));
      }
      credit_msgs += f->credit_tx.ProcessedCount();
      data_msgs += f->sent;
      if (trace_ != nullptr && f->have_first_measured) {
        if (trace_->sent_count(f->id) != f->sent ||
            trace_->delivered_count(f->id) != f->received) {
          report_.Fail("flow hook counts differ from messages");
        }
        trace_->Collect(f->id, f->first_measured, f->received, layers_->stages);
      }
    }
    if (layers_ == nullptr) {
      return;
    }
    layers_->credit_msgs += credit_msgs;
    layers_->flow_msgs += data_msgs;
    if (rt_flow != kNoRtFlow) {
      const Flow& rt = *flows_[rt_flow];
      layers_->deadline_misses +=
          cluster_->domain(0).comm().telemetry(rt.data_tx.index()).deadline_misses.Read();
      layers_->rt_msgs += rt.sent;
    }
    layers_->NoteTrialCounts(data_msgs, total, false, report_);
  }

  static constexpr std::uint32_t kNoRtFlow = ~0u;

 private:
  static constexpr std::uint32_t kMaxFlows = 8;
  bool tracing() const { return trace_ != nullptr; }

  const Payloads& payloads_;
  Report& report_;
  Layers* layers_;
  // Declared before the cluster: the engines' hooks reference it until the
  // cluster's runner threads are joined.
  std::unique_ptr<StageTrace> trace_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<Flow>> flows_;
  std::int64_t start_ = 0;
  std::int64_t warm_end_ = 0;
  double setup_s_ = 0;
};

// End-to-end samples of untraced trials, and the latencies of both kinds
// for the tracing-overhead comparison.
struct Summary {
  EndToEnd e2e;
  std::vector<double> latency_us, traced_latency_us;

  void Add(bool traced, const FlowTrial& trial, double rate, const std::vector<double>& latency) {
    std::fprintf(stderr, "trial%s: setup %.0f us, %.0f msgs/s, p50 %.2f us, p99 %.2f us\n",
                 traced ? " traced" : "", trial.setup_s() * 1e6, rate, Percentile(latency, 0.5),
                 Percentile(latency, 0.99));
    std::vector<double>& into = traced ? traced_latency_us : latency_us;
    into.insert(into.end(), latency.begin(), latency.end());
    if (!traced) {
      e2e.AddTrial(trial.setup_s(), rate, latency);
    }
  }
};

void Finalize(const Options& options, Report& report, Layers& layers, Summary& s) {
  s.e2e.Report(report);
  if (options.trace) {
    layers.untraced_latency_us = std::move(s.latency_us);
    layers.traced_latency_us = std::move(s.traced_latency_us);
    ReportLayers(report, layers);
  }
}

}  // namespace

void RunStream(const Options& options, Report& report) {
  const Payloads payloads(options.seed, 64 - 8);
  Layers layers;
  Summary summary;
  const FlowConfig config{.window = 64, .batch = 16};
  for (int t = 0; t < TrialCount(options); ++t) {
    const bool traced = TrialTraced(options, t);
    FlowTrial trial(payloads, report, &layers, traced);
    if (!trial.SetUp(t, {config}, {1, 1, 1, 1})) {
      return;
    }
    Flow& f = trial.flow(0);
    const std::int64_t end = trial.start() + TrialWindowNs(options);
    std::vector<double> latency;
    std::uint64_t measured = 0;
    std::int64_t now = NowNs();
    while (now < end) {
      while (trial.TrySend(f)) {
      }
      measured += trial.Drain(f, &latency);
      now = NowNs();
    }
    const double rate = RatePerS(measured, trial.warm_end(), now);
    if (!trial.DrainAll()) {
      return;
    }
    trial.Finish();
    summary.Add(traced, trial, rate, latency);
  }
  Finalize(options, report, layers, summary);
}

void RunRtMixed(const Options& options, Report& report) {
  constexpr std::uint32_t kBulkFlows = 7;
  constexpr std::int64_t kRtPeriodNs = 100'000;  // 10k msg/s
  constexpr std::uint32_t kRtDeadlineNs = 100'000;
  constexpr std::uint32_t kBulkDrainPerPass = 4;
  const Payloads payloads(options.seed, 64 - 8);
  flipc::Rng interleave(options.seed ^ 0x7e7e);
  Layers layers;
  Summary summary;
  std::vector<FlowConfig> configs;
  configs.push_back({.window = 32, .batch = 4, .qos_class = 1, .deadline_ns = kRtDeadlineNs});
  for (std::uint32_t i = 0; i < kBulkFlows; ++i) {
    configs.push_back({.window = 16, .batch = 4});
  }
  std::vector<double> rt_p50_us, rt_p99_us;
  std::uint64_t rt_samples = 0;
  for (int t = 0; t < TrialCount(options); ++t) {
    const bool traced = TrialTraced(options, t);
    FlowTrial trial(payloads, report, &layers, traced);
    if (!trial.SetUp(t, configs, {1, 4, 1, 1})) {
      return;
    }
    Flow& rt = trial.flow(0);
    const std::int64_t end = trial.start() + TrialWindowNs(options);
    std::vector<double> rt_latency, all_latency;
    std::uint64_t measured = 0;
    std::int64_t rt_due = trial.start();
    std::uint32_t drain_flow = 0;
    std::int64_t now = NowNs();
    while (now < end) {
      // The RT schedule is fixed in advance; an RT send that cannot go (no
      // credit) is retried on the next pass, and its lateness counts in its
      // latency, which runs from the due time. Bulk flows send whenever
      // they hold a credit.
      if (now >= rt_due) {
        if (trial.TrySend(rt, rt_due)) {
          if (rt_due >= trial.warm_end()) {
            layers.lag_us.push_back(static_cast<double>(now - rt_due) * 1e-3);
          }
          rt_due += kRtPeriodNs;
        }
      } else {
        trial.TrySend(trial.flow(1 + static_cast<std::uint32_t>(interleave.Below(kBulkFlows))));
      }
      // Bounded receive work per pass keeps the pass short, so the RT
      // schedule and RT arrivals are noticed within a few microseconds.
      const std::size_t rt_before = rt_latency.size();
      measured += trial.Drain(rt, &rt_latency);
      all_latency.insert(all_latency.end(), rt_latency.begin() + rt_before, rt_latency.end());
      measured += trial.Drain(trial.flow(1 + drain_flow), &all_latency, kBulkDrainPerPass);
      drain_flow = (drain_flow + 1) % kBulkFlows;
      now = NowNs();
    }
    const double rate = RatePerS(measured, trial.warm_end(), now);
    if (!trial.DrainAll()) {
      return;
    }
    trial.Finish(0);
    summary.Add(traced, trial, rate, all_latency);
    if (!traced) {
      rt_p50_us.push_back(Percentile(rt_latency, 0.50));
      rt_p99_us.push_back(Percentile(rt_latency, 0.99));
      rt_samples += rt_latency.size();
    }
  }
  report.Add("rt_p50_us", Median(rt_p50_us), "us", rt_samples);
  report.Add("rt_p99_us", Median(rt_p99_us), "us", rt_samples);
  report.Add("rt_miss_frac",
             Ratio(static_cast<double>(layers.deadline_misses), static_cast<double>(layers.rt_msgs)),
             "count", layers.rt_msgs);
  Finalize(options, report, layers, summary);
}

}  // namespace perfbench
