// E10 — real-time traffic separation (Introduction + Future Work).
//
// Paper: "the system must not only process a message announcing detection
// of an incoming missile in preference to a message indicating that it is
// time for preventative maintenance, but must also ensure that the latter
// message does not consume resources required to handle the former."
// FLIPC's answer is structural: per-endpoint buffer resources separate the
// classes, and the future-work prioritization (the planner's EDF order for
// real-time endpoints) makes the engine serve the critical send first.
//
// Scenario: a sensor node emits a burst of background telemetry from eight
// endpoints every 400 us, plus one critical message per burst period from
// its own endpoint, timed to land mid-burst. The tracker node drains
// periodically. Three configurations:
//   1. shared   — critical messages target the same receive endpoint (and
//                 buffers) as the telemetry: bursts exhaust the buffers and
//                 the optimistic transport discards critical messages;
//   2. separate — own receive endpoint and buffers: zero critical drops;
//   3. real-time — separate + a deadline on the critical endpoint and
//                 single-message transmit units: the critical send jumps
//                 the sender-side backlog, cutting delivery latency (the
//                 residual latency is inbound FIFO at the receiving
//                 engine, which no sender-side policy can remove).
//
// QoS planner extension (DESIGN.md §15): a real-time endpoint in a
// high-weight service class with a per-message deadline, measured alone and
// under a saturating bulk flood from a low-weight class. The planner must
// hold the RT stream's delivery latency within 2x of its isolated value and
// record zero deadline misses, while the bulk class keeps making progress
// (weighted sharing, not starvation).
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/stats.h"

namespace flipc::bench {
namespace {

constexpr TimeNs kRunFor = 40'000'000;       // 40 ms
constexpr DurationNs kBurstPeriod = 400'000; // background burst every 400 us
constexpr std::uint32_t kBgEndpoints = 8;
constexpr std::uint32_t kBurstPerEndpoint = 8;
constexpr DurationNs kDrainInterval = 250'000;
constexpr std::uint32_t kCriticalMagic = 0xC417ACA1;

struct Outcome {
  RunningStats critical_latency_ns;  // engine delivery latency (separate only)
  std::uint64_t critical_sent = 0;
  std::uint64_t critical_delivered = 0;
  std::uint64_t background_sent = 0;
  std::uint64_t background_delivered = 0;

  std::uint64_t critical_lost() const { return critical_sent - critical_delivered; }
};

// The real-time critical endpoint's relative deadline (one burst period).
constexpr std::uint32_t kCriticalDeadlineNs = kBurstPeriod;

Outcome RunScenario(bool shared_endpoint, bool realtime_critical) {
  engine::EngineOptions engine_options;
  // Single-message units let the critical send preempt between any two
  // background sends instead of waiting out a coalesced batch.
  if (realtime_critical) {
    engine_options.transmit_batch = 1;
  }
  SimCluster::Options cluster_options;
  cluster_options.node_count = 2;
  cluster_options.comm.message_size = 128;
  cluster_options.comm.buffer_count = 512;
  cluster_options.comm.max_endpoints = 32;
  cluster_options.engine = engine_options;
  auto cluster_or = SimCluster::Create(std::move(cluster_options));
  if (!cluster_or.ok()) {
    std::abort();
  }
  SimCluster& cluster = **cluster_or;
  Domain& sensor = cluster.domain(0);
  Domain& tracker = cluster.domain(1);
  Outcome out;

  // Background: eight send endpoints into one telemetry sink.
  std::vector<Endpoint> bg_tx;
  for (std::uint32_t i = 0; i < kBgEndpoints; ++i) {
    auto endpoint =
        sensor.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 16});
    if (!endpoint.ok()) {
      std::abort();
    }
    bg_tx.push_back(*endpoint);
  }
  auto bg_rx =
      tracker.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 64});
  auto crit_tx = sensor.CreateEndpoint(
      {.type = shm::EndpointType::kSend,
       .queue_depth = 4,
       .deadline_ns = realtime_critical ? kCriticalDeadlineNs : 0});
  auto crit_rx = shared_endpoint
                     ? bg_rx
                     : tracker.CreateEndpoint(
                           {.type = shm::EndpointType::kReceive, .queue_depth = 8});
  if (!bg_rx.ok() || !crit_tx.ok() || !crit_rx.ok()) {
    std::abort();
  }

  // Resource provisioning: telemetry gets 16 buffers — well under one full
  // 64-message burst, so bursts overrun it by design (telemetry tolerates
  // loss). The critical class gets its own 4 only in the separate
  // configurations.
  for (int i = 0; i < 16; ++i) {
    auto buffer = tracker.AllocateBuffer();
    (void)bg_rx->PostBuffer(*buffer);
  }
  if (!shared_endpoint) {
    for (int i = 0; i < 4; ++i) {
      auto buffer = tracker.AllocateBuffer();
      (void)crit_rx->PostBuffer(*buffer);
    }
  }

  // Background burst: each endpoint releases kBurstPerEndpoint messages
  // back-to-back every period.
  std::function<void()> burst = [&] {
    if (cluster.sim().Now() >= kRunFor) {
      return;
    }
    for (Endpoint& tx : bg_tx) {
      for (std::uint32_t i = 0; i < kBurstPerEndpoint; ++i) {
        auto buffer = tx.ReclaimUnlocked();
        Result<MessageBuffer> msg = buffer.ok() ? buffer : sensor.AllocateBuffer();
        if (!msg.ok()) {
          break;
        }
        *msg->As<std::uint32_t>() = 0;
        if (tx.SendUnlocked(*msg, bg_rx->address()).ok()) {
          ++out.background_sent;
        }
      }
    }
    cluster.sim().ScheduleAfter(kBurstPeriod, burst);
  };

  // Critical producer: one tagged message per period, mid-burst.
  TimeNs critical_sent_at = 0;
  std::function<void()> send_critical = [&] {
    if (cluster.sim().Now() >= kRunFor) {
      return;
    }
    auto buffer = crit_tx->ReclaimUnlocked();
    Result<MessageBuffer> msg = buffer.ok() ? buffer : sensor.AllocateBuffer();
    if (msg.ok()) {
      *msg->As<std::uint32_t>() = kCriticalMagic;
      critical_sent_at = cluster.sim().Now();
      if (crit_tx->SendUnlocked(*msg, crit_rx->address()).ok()) {
        ++out.critical_sent;
      }
    }
    cluster.sim().ScheduleAfter(kBurstPeriod, send_critical);
  };

  // Engine-level delivery latency is attributable only with a dedicated
  // critical endpoint.
  if (!shared_endpoint) {
    cluster.engine(1).SetReceiveHook([&](std::uint32_t endpoint, bool delivered) {
      if (endpoint == crit_rx->index() && delivered && critical_sent_at != 0) {
        out.critical_latency_ns.Add(
            static_cast<double>(cluster.sim().Now() - critical_sent_at));
        critical_sent_at = 0;
      }
    });
  }

  // Tracker application: periodic drain of whatever endpoints exist,
  // classifying messages by their payload tag.
  std::function<void()> drain = [&] {
    std::vector<Endpoint*> endpoints = {&*bg_rx};
    if (!shared_endpoint) {
      endpoints.push_back(&*crit_rx);
    }
    for (Endpoint* rx : endpoints) {
      for (;;) {
        auto message = rx->Receive();
        if (!message.ok()) {
          break;
        }
        if (*message->As<std::uint32_t>() == kCriticalMagic) {
          ++out.critical_delivered;
        } else {
          ++out.background_delivered;
        }
        (void)rx->PostBuffer(*message);
      }
    }
    if (cluster.sim().Now() < kRunFor + 2'000'000) {
      cluster.sim().ScheduleAfter(kDrainInterval, drain);
    }
  };

  cluster.sim().ScheduleAt(0, burst);
  cluster.sim().ScheduleAt(kBurstPeriod / 4, send_critical);  // mid-burst
  cluster.sim().ScheduleAt(kDrainInterval, drain);
  cluster.sim().RunUntil(kRunFor + 3'000'000);
  return out;
}

// ---- QoS planner scenario (DESIGN.md §15) ------------------------------

constexpr DurationNs kRtPeriod = 200'000;      // one RT message per 200 us
constexpr std::uint32_t kRtClass = 1;          // RT service class (weight 8)
constexpr std::uint32_t kRtDeadlineNs = 300'000;

struct QosOutcome {
  RunningStats rt_latency_ns;
  std::uint64_t rt_sent = 0;
  std::uint64_t rt_delivered = 0;
  std::uint64_t rt_deadline_misses = 0;
  std::uint64_t bulk_delivered = 0;
};

// One real-time endpoint (class 1, weight 8, 300 us deadline) against an
// optional saturating bulk flood in class 0 (weight 1). Three nodes: the
// bulk flood targets node 2 while the RT stream targets node 1, so the
// contended resource is exactly the one the QoS planner manages — the
// shared sending engine — and not the receiving engine's inbound FIFO
// (which the scenarios above already show no sender-side policy can
// remove). A short transmit batch keeps the planner's preemption points
// frequent, so an RT arrival waits at most one small bulk assembly before
// the deficit credits hand the engine to the RT class.
QosOutcome RunQosScenario(bool flood) {
  engine::EngineOptions engine_options;
  engine_options.transmit_batch = 2;
  engine_options.qos_weights = {1, 8, 1, 1};
  SimCluster::Options cluster_options;
  cluster_options.node_count = 3;
  cluster_options.comm.message_size = 128;
  cluster_options.comm.buffer_count = 512;
  cluster_options.comm.max_endpoints = 32;
  cluster_options.engine = engine_options;
  auto cluster_or = SimCluster::Create(std::move(cluster_options));
  if (!cluster_or.ok()) {
    std::abort();
  }
  SimCluster& cluster = **cluster_or;
  Domain& sensor = cluster.domain(0);
  Domain& tracker = cluster.domain(1);
  Domain& bulk_sink = cluster.domain(2);
  QosOutcome out;

  std::vector<Endpoint> bulk_tx;
  if (flood) {
    for (std::uint32_t i = 0; i < kBgEndpoints; ++i) {
      auto endpoint = sensor.CreateEndpoint(
          {.type = shm::EndpointType::kSend, .queue_depth = 16, .qos_class = 0});
      if (!endpoint.ok()) {
        std::abort();
      }
      bulk_tx.push_back(*endpoint);
    }
  }
  auto bulk_rx = bulk_sink.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = 64});
  auto rt_tx = sensor.CreateEndpoint({.type = shm::EndpointType::kSend,
                                      .queue_depth = 4,
                                      .qos_class = kRtClass,
                                      .deadline_ns = kRtDeadlineNs});
  auto rt_rx =
      tracker.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 8});
  if (!bulk_rx.ok() || !rt_tx.ok() || !rt_rx.ok()) {
    std::abort();
  }
  for (int i = 0; i < 16; ++i) {
    auto buffer = bulk_sink.AllocateBuffer();
    (void)bulk_rx->PostBuffer(*buffer);
  }
  for (int i = 0; i < 4; ++i) {
    auto buffer = tracker.AllocateBuffer();
    (void)rt_rx->PostBuffer(*buffer);
  }

  std::function<void()> burst = [&] {
    if (cluster.sim().Now() >= kRunFor) {
      return;
    }
    for (Endpoint& tx : bulk_tx) {
      for (std::uint32_t i = 0; i < kBurstPerEndpoint; ++i) {
        auto buffer = tx.ReclaimUnlocked();
        Result<MessageBuffer> msg = buffer.ok() ? buffer : sensor.AllocateBuffer();
        if (!msg.ok()) {
          break;
        }
        *msg->As<std::uint32_t>() = 0;
        (void)tx.SendUnlocked(*msg, bulk_rx->address());
      }
    }
    cluster.sim().ScheduleAfter(kBurstPeriod, burst);
  };

  TimeNs rt_sent_at = 0;
  std::function<void()> send_rt = [&] {
    if (cluster.sim().Now() >= kRunFor) {
      return;
    }
    auto buffer = rt_tx->ReclaimUnlocked();
    Result<MessageBuffer> msg = buffer.ok() ? buffer : sensor.AllocateBuffer();
    if (msg.ok()) {
      *msg->As<std::uint32_t>() = kCriticalMagic;
      rt_sent_at = cluster.sim().Now();
      if (rt_tx->SendUnlocked(*msg, rt_rx->address()).ok()) {
        ++out.rt_sent;
      }
    }
    cluster.sim().ScheduleAfter(kRtPeriod, send_rt);
  };

  cluster.engine(1).SetReceiveHook([&](std::uint32_t endpoint, bool delivered) {
    if (endpoint == rt_rx->index() && delivered && rt_sent_at != 0) {
      out.rt_latency_ns.Add(static_cast<double>(cluster.sim().Now() - rt_sent_at));
      rt_sent_at = 0;
    }
  });

  std::function<void()> drain = [&] {
    Endpoint* endpoints[] = {&*bulk_rx, &*rt_rx};
    for (Endpoint* rx : endpoints) {
      for (;;) {
        auto message = rx->Receive();
        if (!message.ok()) {
          break;
        }
        if (*message->As<std::uint32_t>() == kCriticalMagic) {
          ++out.rt_delivered;
        } else {
          ++out.bulk_delivered;
        }
        (void)rx->PostBuffer(*message);
      }
    }
    if (cluster.sim().Now() < kRunFor + 2'000'000) {
      cluster.sim().ScheduleAfter(kDrainInterval, drain);
    }
  };

  if (flood) {
    cluster.sim().ScheduleAt(0, burst);
  }
  cluster.sim().ScheduleAt(kBurstPeriod / 4, send_rt);  // mid-burst when flooded
  cluster.sim().ScheduleAt(kDrainInterval, drain);
  cluster.sim().RunUntil(kRunFor + 3'000'000);

  out.rt_deadline_misses =
      sensor.comm().telemetry(rt_tx->index()).deadline_misses.Read();
  return out;
}

void Run(JsonReport& report) {
  PrintHeader("E10: bench_rt_isolation",
              "Introduction (traffic classes) + Future Work (real-time prioritization)",
              "separate endpoints isolate buffer resources from a telemetry flood; "
              "a real-time (EDF) critical endpoint is served first");

  const Outcome shared = RunScenario(/*shared_endpoint=*/true, /*realtime_critical=*/false);
  const Outcome separate =
      RunScenario(/*shared_endpoint=*/false, /*realtime_critical=*/false);
  const Outcome realtime = RunScenario(/*shared_endpoint=*/false, /*realtime_critical=*/true);

  TextTable table({"configuration", "crit sent", "crit lost", "deliv latency us (mean/max)",
                   "bg delivered"});
  auto latency_cell = [](const Outcome& o) -> std::string {
    if (o.critical_latency_ns.count() == 0) {
      return "- (not attributable)";
    }
    return TextTable::Num(o.critical_latency_ns.mean() / 1000.0) + " / " +
           TextTable::Num(o.critical_latency_ns.max() / 1000.0);
  };
  table.AddRow({"shared endpoint (no separation)", std::to_string(shared.critical_sent),
                std::to_string(shared.critical_lost()), latency_cell(shared),
                std::to_string(shared.background_delivered)});
  table.AddRow({"separate endpoints, round-robin", std::to_string(separate.critical_sent),
                std::to_string(separate.critical_lost()), latency_cell(separate),
                std::to_string(separate.background_delivered)});
  table.AddRow({"separate endpoints, real-time (EDF) critical",
                std::to_string(realtime.critical_sent),
                std::to_string(realtime.critical_lost()), latency_cell(realtime),
                std::to_string(realtime.background_delivered)});
  std::printf("%s\n", table.ToString().c_str());

  std::printf("Shape checks:\n");
  std::printf("  - shared endpoint: the flood consumes the buffers the critical class "
              "needs -> %llu of %llu critical messages lost %s\n",
              static_cast<unsigned long long>(shared.critical_lost()),
              static_cast<unsigned long long>(shared.critical_sent),
              shared.critical_lost() > 0 ? "[OK]" : "[MISMATCH]");
  std::printf("  - separate endpoints: zero critical losses %s\n",
              (separate.critical_lost() == 0 && realtime.critical_lost() == 0)
                  ? "[OK]" : "[MISMATCH]");
  std::printf("  - real-time critical endpoint cuts mean delivery latency %.2f -> %.2f us "
              "%s\n"
              "    (residual is inbound FIFO at the receiving engine)\n\n",
              separate.critical_latency_ns.mean() / 1000.0,
              realtime.critical_latency_ns.mean() / 1000.0,
              realtime.critical_latency_ns.mean() < separate.critical_latency_ns.mean()
                  ? "[OK]" : "[MISMATCH]");

  // QoS planner: the RT class must ride through a saturating bulk flood.
  const QosOutcome rt_alone = RunQosScenario(/*flood=*/false);
  const QosOutcome rt_flood = RunQosScenario(/*flood=*/true);

  TextTable qos_table({"qos configuration", "rt sent", "rt delivered",
                       "rt latency us (mean/max)", "rt deadline misses",
                       "bulk delivered"});
  auto qos_latency_cell = [](const QosOutcome& o) {
    return TextTable::Num(o.rt_latency_ns.mean() / 1000.0) + " / " +
           TextTable::Num(o.rt_latency_ns.max() / 1000.0);
  };
  qos_table.AddRow({"rt class alone (isolated baseline)",
                    std::to_string(rt_alone.rt_sent),
                    std::to_string(rt_alone.rt_delivered), qos_latency_cell(rt_alone),
                    std::to_string(rt_alone.rt_deadline_misses),
                    std::to_string(rt_alone.bulk_delivered)});
  qos_table.AddRow({"rt class vs bulk flood (weights 8:1)",
                    std::to_string(rt_flood.rt_sent),
                    std::to_string(rt_flood.rt_delivered), qos_latency_cell(rt_flood),
                    std::to_string(rt_flood.rt_deadline_misses),
                    std::to_string(rt_flood.bulk_delivered)});
  std::printf("%s\n", qos_table.ToString().c_str());

  const double qos_ratio = rt_alone.rt_latency_ns.mean() > 0
                               ? rt_flood.rt_latency_ns.mean() / rt_alone.rt_latency_ns.mean()
                               : 0.0;
  std::printf("QoS planner shape checks:\n");
  std::printf("  - rt mean latency under flood within 2x isolated (%.2f -> %.2f us, "
              "%.2fx) %s\n",
              rt_alone.rt_latency_ns.mean() / 1000.0,
              rt_flood.rt_latency_ns.mean() / 1000.0, qos_ratio,
              (qos_ratio > 0.0 && qos_ratio <= 2.0) ? "[OK]" : "[MISMATCH]");
  std::printf("  - zero rt deadline misses under flood %s\n",
              rt_flood.rt_deadline_misses == 0 ? "[OK]" : "[MISMATCH]");
  std::printf("  - rt stream lossless under flood %s\n",
              (rt_flood.rt_sent > 0 && rt_flood.rt_delivered == rt_flood.rt_sent)
                  ? "[OK]" : "[MISMATCH]");
  std::printf("  - bulk class keeps progressing (weighted share, not starvation) %s\n\n",
              rt_flood.bulk_delivered > 0 ? "[OK]" : "[MISMATCH]");

  report.AddConfig("run_for_ms", kRunFor / 1e6);
  report.AddConfig("rt_deadline_us", kRtDeadlineNs / 1e3);
  report.AddMetric("critical_lost_shared", static_cast<double>(shared.critical_lost()),
                   "messages");
  report.AddMetric("critical_latency_separate_mean",
                   separate.critical_latency_ns.mean() / 1000.0, "us");
  report.AddMetric("critical_latency_priority_mean",
                   realtime.critical_latency_ns.mean() / 1000.0, "us");
  report.AddMetric("qos_rt_latency_isolated_mean",
                   rt_alone.rt_latency_ns.mean() / 1000.0, "us");
  report.AddMetric("qos_rt_latency_flood_mean",
                   rt_flood.rt_latency_ns.mean() / 1000.0, "us");
  report.AddMetric("qos_rt_latency_flood_max", rt_flood.rt_latency_ns.max() / 1000.0,
                   "us");
  report.AddMetric("qos_rt_flood_ratio", qos_ratio, "x");
  report.AddMetric("qos_rt_deadline_misses",
                   static_cast<double>(rt_flood.rt_deadline_misses), "count");
  report.AddMetric("qos_bulk_delivered_under_flood",
                   static_cast<double>(rt_flood.bulk_delivered), "messages");
}

}  // namespace
}  // namespace flipc::bench

int main(int argc, char** argv) {
  flipc::bench::JsonReport report(argc, argv, "rt_isolation");
  flipc::bench::Run(report);
  return 0;
}
