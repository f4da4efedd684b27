// E13 — capacity/bandwidth control (Future Work).
//
// Paper: "we intend to pursue further integration of FLIPC into a real
// time environment by adding real time prioritization and
// capacity/bandwidth control functionality to the basic inter-node
// transport." E10 covered prioritization; this bench covers capacity
// control: a greedy background endpoint is throttled by an engine-enforced
// token bucket of capacity 1 (one send per refill interval), bounding the
// bandwidth it can take from a critical stream regardless of how much the
// (possibly untrusted) application offers.
#include <cstdio>
#include <functional>

#include "bench/bench_common.h"
#include "src/base/stats.h"

namespace flipc::bench {
namespace {

constexpr TimeNs kRunFor = 20'000'000;  // 20 ms

struct Outcome {
  std::uint64_t background_delivered = 0;
  RunningStats critical_latency_ns;

  double BackgroundMBps(std::uint32_t payload) const {
    return static_cast<double>(background_delivered * payload) / (1024.0 * 1024.0) /
           (static_cast<double>(kRunFor) / 1e9);
  }
};

// A greedy sender saturates its endpoint; a critical 500 us stream shares
// the node. `interval_ns` is the engine-enforced spacing (0 = off).
Outcome RunScenario(std::uint32_t interval_ns) {
  auto cluster = MakeParagonPair(128);
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  Outcome out;

  Domain::EndpointOptions bg_options;
  bg_options.type = shm::EndpointType::kSend;
  bg_options.queue_depth = 16;
  if (interval_ns != 0) {
    bg_options.bucket_capacity = 1;  // a send interval: one token per refill
    bg_options.bucket_refill_ns = interval_ns;
  }
  auto bg_tx = a.CreateEndpoint(bg_options);
  auto bg_rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 64});
  auto crit_tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 4});
  auto crit_rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 8});
  if (!bg_tx.ok() || !bg_rx.ok() || !crit_tx.ok() || !crit_rx.ok()) {
    std::abort();
  }
  for (int i = 0; i < 32; ++i) {
    auto buffer = b.AllocateBuffer();
    (void)bg_rx->PostBuffer(*buffer);
  }
  for (int i = 0; i < 4; ++i) {
    auto buffer = b.AllocateBuffer();
    (void)crit_rx->PostBuffer(*buffer);
  }

  // Greedy pump: refill the background queue on every completion.
  auto pump = [&] {
    for (;;) {
      auto buffer = bg_tx->ReclaimUnlocked();
      Result<MessageBuffer> msg = buffer.ok() ? buffer : a.AllocateBuffer();
      if (!msg.ok() || !bg_tx->SendUnlocked(*msg, bg_rx->address()).ok()) {
        if (msg.ok() && !buffer.ok()) {
          (void)a.FreeBuffer(*msg);
        }
        break;
      }
    }
  };
  // The send hook fires before the completion that makes the buffer
  // reclaimable, so the pump runs as an event at the same instant.
  cluster->engine(0).SetSendCompleteHook([&](std::uint32_t endpoint) {
    if (endpoint == bg_tx->index() && cluster->sim().Now() < kRunFor) {
      cluster->sim().ScheduleAfter(0, pump);
    }
  });

  TimeNs critical_sent_at = 0;
  cluster->engine(1).SetReceiveHook([&](std::uint32_t endpoint, bool delivered) {
    if (!delivered) {
      return;
    }
    if (endpoint == bg_rx->index()) {
      ++out.background_delivered;
    } else if (endpoint == crit_rx->index() && critical_sent_at != 0) {
      out.critical_latency_ns.Add(
          static_cast<double>(cluster->sim().Now() - critical_sent_at));
      critical_sent_at = 0;
    }
  });

  // Receiver app re-posts buffers promptly.
  std::function<void()> drain = [&] {
    for (Endpoint* rx : {&*bg_rx, &*crit_rx}) {
      for (;;) {
        auto message = rx->Receive();
        if (!message.ok()) {
          break;
        }
        (void)rx->PostBuffer(*message);
      }
    }
    if (cluster->sim().Now() < kRunFor + 1'000'000) {
      cluster->sim().ScheduleAfter(50'000, drain);
    }
  };

  std::function<void()> send_critical = [&] {
    if (cluster->sim().Now() >= kRunFor) {
      return;
    }
    auto buffer = crit_tx->ReclaimUnlocked();
    Result<MessageBuffer> msg = buffer.ok() ? buffer : a.AllocateBuffer();
    if (msg.ok()) {
      critical_sent_at = cluster->sim().Now();
      (void)crit_tx->SendUnlocked(*msg, crit_rx->address());
    }
    cluster->sim().ScheduleAfter(500'000, send_critical);
  };

  cluster->sim().ScheduleAt(0, pump);
  cluster->sim().ScheduleAt(50'000, drain);
  cluster->sim().ScheduleAt(125'000, send_critical);
  cluster->sim().RunUntil(kRunFor + 2'000'000);
  return out;
}

void Run() {
  PrintHeader("E13: bench_rate_limit",
              "Future Work (capacity/bandwidth control on the transport)",
              "an engine-enforced per-endpoint send interval caps a greedy stream's "
              "bandwidth and steadies a critical stream's latency");

  TextTable table({"bg send interval", "bg delivered", "bg MB/s", "critical mean us",
                   "critical max us"});
  for (const std::uint32_t interval : {0u, 10'000u, 25'000u, 100'000u}) {
    const Outcome out = RunScenario(interval);
    table.AddRow({interval == 0 ? "unlimited" : std::to_string(interval / 1000) + " us",
                  std::to_string(out.background_delivered),
                  TextTable::Num(out.BackgroundMBps(120), 2),
                  TextTable::Num(out.critical_latency_ns.mean() / 1000.0),
                  TextTable::Num(out.critical_latency_ns.max() / 1000.0)});
  }
  std::printf("%s\n", table.ToString().c_str());

  const Outcome unlimited = RunScenario(0);
  const Outcome capped = RunScenario(25'000);
  std::printf("Shape checks: the cap bounds background throughput (%llu -> %llu msgs) %s "
              "and cuts critical tail latency (%.1f -> %.1f us max) %s.\n\n",
              static_cast<unsigned long long>(unlimited.background_delivered),
              static_cast<unsigned long long>(capped.background_delivered),
              capped.background_delivered < unlimited.background_delivered / 2 ? "[OK]"
                                                                               : "[MISMATCH]",
              unlimited.critical_latency_ns.max() / 1000.0,
              capped.critical_latency_ns.max() / 1000.0,
              capped.critical_latency_ns.max() < unlimited.critical_latency_ns.max()
                  ? "[OK]"
                  : "[MISMATCH]");
}

}  // namespace
}  // namespace flipc::bench

int main() {
  flipc::bench::Run();
  return 0;
}
