// inline_path: FLIPC's per-message CPU cost with no runner threads. The
// benchmark assembles two Domains, a ThreadFabric and two MessagingEngines
// through their public constructors and drives everything from one thread:
// a burst of 32 sends (64 B), then Step() on the source engine until it is
// idle, then Step() on the destination engine, then receive, re-post and
// reclaim. Nothing parks or waits, so the time is flipc + engine + simnet
// work only, and every trial of a fixed message count must repeat the same
// engine counters exactly. Traced trials wrap each Wire in TimedWire (the
// only place the simnet wire is visible from outside; Cluster hides its
// fabric) and time every Step() call.
#include <memory>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/base/clock.h"
#include "src/engine/messaging_engine.h"
#include "src/flipc/domain.h"
#include "src/simnet/fabric.h"

namespace perfbench {
namespace {

using flipc::Domain;
using flipc::MessageBuffer;
using flipc::engine::MessagingEngine;

constexpr std::uint32_t kBurst = 32;
constexpr std::uint32_t kBurstsPerTrial = 4096;  // 131072 messages per trial
// Bursts at the start of every trial that are checked but not timed.
constexpr std::uint32_t kWarmupBursts = 256;

struct TrialResult {
  bool ok = false;
  double setup_s = 0;
  double rate = 0;  // messages per second over the measured bursts
  std::vector<double> latency_us;
};

TrialResult RunTrial(const Payloads& payloads, Report& report, Layers& layers, bool traced) {
  TrialResult result;
  std::unique_ptr<StageTrace> trace;
  if (traced) {
    trace = std::make_unique<StageTrace>(1);
  }

  const std::int64_t t0 = NowNs();
  flipc::simnet::ThreadFabric fabric(2);
  std::unique_ptr<Domain> domains[2];
  for (flipc::NodeId n = 0; n < 2; ++n) {
    Domain::Options options;
    options.comm.message_size = 64;
    options.comm.buffer_count = 256;
    options.comm.max_endpoints = 8;
    options.node = n;
    auto domain = Domain::Create(options);
    if (!domain.ok()) {
      report.Fail("inline_path domain create");
      return result;
    }
    domains[n] = std::move(*domain);
  }
  Domain& d0 = *domains[0];
  Domain& d1 = *domains[1];
  std::unique_ptr<TimedWire> timed[2];
  flipc::simnet::Wire* wires[2] = {&fabric.wire(0), &fabric.wire(1)};
  if (traced) {
    for (int n = 0; n < 2; ++n) {
      timed[n] = std::make_unique<TimedWire>(fabric.wire(static_cast<flipc::NodeId>(n)), layers);
      wires[n] = timed[n].get();
    }
  }
  MessagingEngine e0(d0.comm(), *wires[0], flipc::engine::EngineOptions());
  MessagingEngine e1(d1.comm(), *wires[1], flipc::engine::EngineOptions());
  e0.SetClock(&flipc::RealClock::Instance());
  e1.SetClock(&flipc::RealClock::Instance());
  // No runner to wake: the kick only counts what the app asked for.
  std::uint64_t kicks = 0;
  d0.SetEngineKick([&kicks] { ++kicks; });
  d1.SetEngineKick([&kicks] { ++kicks; });

  auto tx = d0.CreateEndpoint({.type = flipc::shm::EndpointType::kSend, .queue_depth = kBurst});
  auto rx = d1.CreateEndpoint({.type = flipc::shm::EndpointType::kReceive, .queue_depth = kBurst});
  if (!tx.ok() || !rx.ok()) {
    report.Fail("inline_path endpoint create");
    return result;
  }
  std::vector<MessageBuffer> send_buffers;
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    auto s = d0.AllocateBuffer();
    auto r = d1.AllocateBuffer();
    if (!s.ok() || !r.ok() || !rx->PostBufferUnlocked(*r).ok()) {
      report.Fail("inline_path buffer set-up");
      return result;
    }
    send_buffers.push_back(*s);
  }
  if (trace != nullptr) {
    std::vector<int> src_map(8, -1);
    std::vector<int> dst_map(8, -1);
    src_map[tx->index()] = 0;
    dst_map[rx->index()] = 0;
    InstallStageHooks(e0, e1, *trace, src_map, dst_map);
  }
  const flipc::Address dst = rx->address();
  const std::int64_t start = NowNs();
  result.setup_s = static_cast<double>(start - t0) * 1e-9;

  std::int64_t send_start[kBurst];
  std::uint32_t seq = 0;
  std::uint32_t received = 0;
  std::int64_t measure_start = 0;
  for (std::uint32_t burst = 0; burst < kBurstsPerTrial; ++burst) {
    const bool measured = burst >= kWarmupBursts;
    if (burst == kWarmupBursts) {
      measure_start = NowNs();
    }
    for (std::uint32_t i = 0; i < kBurst; ++i) {
      payloads.Fill(send_buffers[i], 0, seq);
      const std::int64_t t1 = NowNs();
      const flipc::Status sent = tx->SendUnlocked(send_buffers[i], dst);
      const std::int64_t t2 = NowNs();
      if (!sent.ok()) {
        report.Fail("inline_path send rejected");
        return result;
      }
      send_start[i] = t1;
      if (trace != nullptr && measured) {
        trace->OnSend(0, seq, t1, t2);
        layers.send_ns.push_back(static_cast<std::int32_t>(t2 - t1));
      }
      ++seq;
    }
    report.Attempt(kBurst);
    for (MessagingEngine* engine : {&e0, &e1}) {
      auto& step_ns = engine == &e0 ? layers.step_tx_ns : layers.step_rx_ns;
      for (;;) {
        const std::int64_t s0 = NowNs();
        const bool worked = engine->Step();
        if (!worked) {
          break;
        }
        if (traced && measured) {
          step_ns.push_back(static_cast<std::int32_t>(NowNs() - s0));
        }
      }
    }
    for (std::uint32_t i = 0; i < kBurst; ++i) {
      const std::int64_t t5 = NowNs();
      flipc::Result<MessageBuffer> got = rx->ReceiveUnlocked();
      const std::int64_t t6 = NowNs();
      if (!got.ok()) {
        report.Fail("inline_path message missing after the engines went idle",
                    kBurst - i);
        return result;
      }
      if (!payloads.Verify(*got, 0, received)) {
        report.Fail("inline_path payload/FIFO mismatch");
      }
      if (measured) {
        result.latency_us.push_back(static_cast<double>(t6 - send_start[i]) * 1e-3);
      }
      const std::int64_t t7 = NowNs();
      if (!rx->PostBufferUnlocked(*got).ok()) {
        report.Fail("inline_path re-post rejected");
        return result;
      }
      const std::int64_t t8 = NowNs();
      flipc::Result<MessageBuffer> back = tx->ReclaimUnlocked();
      const std::int64_t t9 = NowNs();
      if (!back.ok()) {
        report.Fail("inline_path reclaim of a completed send failed");
        return result;
      }
      send_buffers[i] = *back;
      if (trace != nullptr && measured) {
        trace->OnReceive(0, received, t5, t6);
        layers.receive_ns.push_back(static_cast<std::int32_t>(t6 - t5));
        layers.post_ns.push_back(static_cast<std::int32_t>(t8 - t7));
        layers.reclaim_ns.push_back(static_cast<std::int32_t>(t9 - t8));
      }
      ++received;
    }
  }
  result.rate = RatePerS(kBurst * (kBurstsPerTrial - kWarmupBursts), measure_start, NowNs());
  if (rx->ReceiveUnlocked().ok()) {
    report.Fail("inline_path received more than it sent");
  }

  flipc::engine::EngineStats total = e0.stats();
  total.Add(e1.stats());
  layers.stats.Add(total);
  layers.kicks += kicks;
  layers.app_msgs += received;
  CheckConservation(total, report);
  AuditDomain(d0, report);
  AuditDomain(d1, report);
  if (rx->DropCount() != 0) {
    report.Fail("inline_path drops", rx->DropCount());
  }
  if (total.messages_delivered != seq) {
    report.Fail("inline_path conservation: delivered " +
                std::to_string(total.messages_delivered) + " of " + std::to_string(seq));
  }
  if (trace != nullptr) {
    if (trace->sent_count(0) != seq || trace->delivered_count(0) != received) {
      report.Fail("inline_path hook counts differ from messages");
    }
    trace->Collect(0, kBurst * kWarmupBursts, received, layers.stages);
  }
  layers.NoteTrialCounts(received, total, true, report);
  result.ok = true;
  return result;
}

}  // namespace

void RunInlinePath(const Options& options, Report& report) {
  const Payloads payloads(options.seed, 64 - 8);
  Layers layers;
  EndToEnd e2e;
  std::vector<double> latency, traced_latency;
  const std::int64_t budget_end = NowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
  for (int t = 0; t < 2 || NowNs() < budget_end; ++t) {
    const bool traced = TrialTraced(options, t);
    PlaceCurrentThread(t, /*load=*/true);
    TrialResult r = RunTrial(payloads, report, layers, traced);
    if (!r.ok) {
      return;
    }
    std::fprintf(stderr, "trial%s: setup %.1f us, %.0f msgs/s, p50 %.2f us, p99 %.2f us\n",
                 traced ? " traced" : "", r.setup_s * 1e6, r.rate, Percentile(r.latency_us, 0.5),
                 Percentile(r.latency_us, 0.99));
    std::vector<double>& into = traced ? traced_latency : latency;
    into.insert(into.end(), r.latency_us.begin(), r.latency_us.end());
    if (!traced) {
      e2e.AddTrial(r.setup_s, r.rate, r.latency_us);
    }
  }
  e2e.Report(report);
  if (options.trace) {
    layers.untraced_latency_us = std::move(latency);
    layers.traced_latency_us = std::move(traced_latency);
    ReportLayers(report, layers);
  }
}

}  // namespace perfbench
