// Failure-injection scenarios (DESIGN.md §14): engine crash/restart
// recovery, endpoint churn under load, and stale-doorbell tolerance.
//
// The recovery invariant under test everywhere: the communication buffer's
// queue cursors are the truth, so killing an engine mid-traffic and
// rebuilding a fresh engine over the abandoned buffer
// (MessagingEngine::RecoverFromBuffer) must lose nothing beyond the
// documented legitimate losses — the dead engine's private heap (its stats
// and any planned packet it held) — and the comm-buffer-resident
// telemetry counter identities must hold afterwards exactly as they do on
// an uninterrupted run.
//
// On failure each test dumps its engines' TraceRing flight recorders as
// Chrome trace-event JSON (failure_postmortem_<test>_<ring>.json) for
// postmortem inspection; CI uploads them as artifacts.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/trace.h"
#include "src/engine/messaging_engine.h"
#include "src/flipc/flipc.h"
#include "src/shm/comm_buffer.h"
#include "src/shm/telemetry_audit.h"
#include "src/simnet/des.h"
#include "src/simnet/fabric.h"
#include "src/simnet/link_model.h"

namespace flipc {
namespace {

// Polls until the result is ready or a generous deadline passes.
template <typename F>
auto PollUntilOk(F&& f) {
  for (int i = 0; i < 200000; ++i) {
    auto result = f();
    if (result.ok()) {
      return result;
    }
    std::this_thread::yield();
  }
  return f();
}

// Dumps the registered TraceRings as Chrome trace JSON when the enclosing
// test has failed by destruction time. One file per ring (rings are
// single-writer; engines must not share one), named
// failure_postmortem_<test>_<index>.json in the working directory — the CI
// failure-scenarios leg uploads build/tests/failure_postmortem_*.json.
class ScopedPostmortem {
 public:
  explicit ScopedPostmortem(std::string test_name) : test_name_(std::move(test_name)) {}

  void Attach(const TraceRing* ring) { rings_.push_back(ring); }

  ~ScopedPostmortem() {
    if (!::testing::Test::HasFailure()) {
      return;
    }
    for (std::size_t i = 0; i < rings_.size(); ++i) {
      const std::string path =
          "failure_postmortem_" + test_name_ + "_" + std::to_string(i) + ".json";
      const std::string json =
          ToChromeTraceJson(*rings_[i], static_cast<std::uint32_t>(i));
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f != nullptr) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "postmortem trace written: %s\n", path.c_str());
      }
    }
  }

 private:
  std::string test_name_;
  std::vector<const TraceRing*> rings_;
};

// Returns a STOPPED cluster so callers can attach TraceRings (a plain
// pointer store, legal only before the engine threads run) and then Start.
std::unique_ptr<Cluster> MakeStoppedCluster(std::uint32_t buffer_count = 256,
                                            DurationNs max_idle_park_ns = 200'000) {
  Cluster::Options options;
  options.node_count = 2;
  options.max_idle_park_ns = max_idle_park_ns;
  options.comm.message_size = 128;
  options.comm.buffer_count = buffer_count;
  options.comm.max_endpoints = 16;
  auto cluster = Cluster::Create(options);
  EXPECT_TRUE(cluster.ok());
  return std::move(cluster).value();
}

// Kills and restarts the receiving node's engine mid-flood and proves the
// recovery invariant: every message is accounted for as a delivery or an
// optimistic discard (app-level conservation), and the comm-buffer
// telemetry identities audit clean afterwards.
//
// The loss budget is 0. KillEngine stops the runner, whose loop commits
// each planned unit inside the same Step() before it checks for stop, so
// the dead engine holds no packet: everything sent while it is down waits
// in the wire ring or behind the queue cursors, which outlive it.
//
// The wire is bounded: while the victim is dead, its inbound ring fills
// and back-pressures the sender, so the rest of the dead window's sends
// wait behind the send queue's cursors and the sender's engine, with
// nothing it can do, parks. The app therefore sends the dead window
// without waiting for reclaims, and the restarted victim must drain the
// full ring and wake the sender for the queued rest. Parks last up to
// 10 s here, so only that wake (not a park timeout) can finish the flood
// in time.
TEST(FailureScenarios, KillRestartEngineMidFlood) {
  // TraceRings are single-writer: one flight recorder per engine, never
  // shared. Declared before the postmortem, whose destructor reads it.
  TraceRing rx_trace(8192);
  ScopedPostmortem postmortem("KillRestartEngineMidFlood");

  constexpr std::uint64_t kMessages = 600;
  constexpr std::uint64_t kKillAt = 150;
  constexpr std::uint64_t kRestartAt = 300;
  static_assert(kRestartAt - kKillAt > simnet::ThreadFabric::kRingDepth,
                "the dead window must overflow the victim's ring");

  auto cluster = MakeStoppedCluster(/*buffer_count=*/1024,
                                    /*max_idle_park_ns=*/10'000'000'000);
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  cluster->engine(1).SetTrace(&rx_trace);
  postmortem.Attach(&rx_trace);
  cluster->Start();

  // No flow control: delivery holds by static sizing. The receive endpoint
  // posts a buffer for every message of the flood, so neither a starved
  // receiver thread nor the restarted engine's burst of packets queued
  // while it was dead can meet an empty receive queue.
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 1024});
  ASSERT_TRUE(rx.ok());
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 256});
  ASSERT_TRUE(tx.ok());

  // Receiver thread: drain the endpoint, reposting every buffer, until
  // told the flood is fully accounted for.
  std::atomic<std::uint64_t> received{0};
  std::atomic<bool> stop_receiving{false};
  std::thread receiver([&] {
    while (!stop_receiving.load(std::memory_order_acquire)) {
      auto message = rx->Receive();
      if (message.ok()) {
        ASSERT_TRUE(rx->PostBuffer(*message).ok());
        received.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  });

  const auto send = [&](MessageBuffer& buffer) {
    return PollUntilOk([&] {
             const Status s = tx->Send(buffer, rx->address());
             return s.ok() ? Result<int>(0) : Result<int>(s);
           }).ok();
  };
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(msg.ok());
  for (std::uint64_t i = 0; i < kKillAt; ++i) {
    ASSERT_TRUE(send(*msg));
    msg = *PollUntilOk([&] { return tx->Reclaim(); });
  }

  // Kill mid-flow: the ring may still hold messages the victim never saw.
  ASSERT_TRUE(cluster->KillEngine(1));
  ASSERT_FALSE(cluster->engine_alive(1));
  ASSERT_FALSE(cluster->KillEngine(1));  // already dead
  const std::uint64_t delivered_at_kill = rx->ProcessedCount();
  const std::uint64_t parks_at_kill = cluster->runner(0).idle_parks();

  // Dead window: every send takes a fresh buffer, none is reclaimed.
  ASSERT_TRUE(send(*msg));
  for (std::uint64_t i = kKillAt + 1; i < kRestartAt; ++i) {
    auto buffer = a.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(send(*buffer));
  }

  // The sender fills the victim's ring and stops there: the rest of the
  // window stays queued, and the sender's engine parks instead of spinning
  // on the full ring.
  const std::uint64_t ring_full_at = delivered_at_kill + simnet::ThreadFabric::kRingDepth;
  // Waits up to `seconds`, less than one park, for `done`.
  const auto wait_until = [](int seconds, auto&& done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return done();
  };
  ASSERT_TRUE(wait_until(8, [&] { return tx->ProcessedCount() >= ring_full_at; }));
  ASSERT_EQ(tx->ProcessedCount(), ring_full_at);
  EXPECT_TRUE(wait_until(8, [&] { return cluster->runner(0).idle_parks() > parks_at_kill; }));
  EXPECT_EQ(tx->ProcessedCount(), ring_full_at);  // Still back-pressured.
  EXPECT_EQ(rx->ProcessedCount(), delivered_at_kill);

  ASSERT_TRUE(cluster->RestartEngine(1));
  ASSERT_TRUE(cluster->engine_alive(1));
  ASSERT_FALSE(cluster->RestartEngine(1));  // already alive
  // The resurrected engine is deliberately NOT re-traced: its runner is
  // already live, and SetTrace is a plain store (pre-Start only). The
  // postmortem keeps the victim's pre-kill events, which is what a crash
  // investigation has anyway.

  // The victim drains the ring and wakes the sender, which sends the
  // queued rest well inside one park; every window buffer comes back.
  ASSERT_TRUE(wait_until(8, [&] { return tx->ProcessedCount() == kRestartAt; }));
  for (std::uint64_t i = kKillAt; i < kRestartAt; ++i) {
    msg = *PollUntilOk([&] { return tx->Reclaim(); });
  }
  for (std::uint64_t i = kRestartAt; i < kMessages; ++i) {
    ASSERT_TRUE(send(*msg));
    msg = *PollUntilOk([&] { return tx->Reclaim(); });
  }

  // Quiesce: wait until every message is accounted for as a delivery or a
  // posted-buffer discard.
  const auto accounted = [&] {
    return received.load(std::memory_order_relaxed) + rx->DropCount();
  };
  for (int i = 0; i < 200000 && accounted() < kMessages; ++i) {
    std::this_thread::yield();
  }
  stop_receiving.store(true, std::memory_order_release);
  receiver.join();
  EXPECT_EQ(accounted(), kMessages);
  EXPECT_EQ(rx->DropCount(), 0u);
  // Delivery resumed after restart: the flood's tail landed.
  EXPECT_EQ(rx->ProcessedCount(), kMessages);

  cluster->Stop();  // Quiesce the engine threads before auditing.

  // The recovery stats landed on the resurrected engine.
  const auto stats = cluster->aggregate_stats(1);
  EXPECT_EQ(stats.recoveries, 1u);
  // The sweep-cause identity survives the recovery sweep (it is not a
  // backstop sweep).
  EXPECT_EQ(stats.backstop_sweeps, stats.doorbell_overflows + stats.sweeps_stalled_head);

  // The telemetry counter identities are comm-buffer resident, so an
  // engine crash must not be able to break them. This is the same audit
  // flipc_inspect --metrics gates on.
  std::vector<shm::EndpointIdentityFailure> failures;
  EXPECT_EQ(shm::AuditTelemetryIdentities(a.comm(), &failures), 0);
  EXPECT_EQ(shm::AuditTelemetryIdentities(b.comm(), &failures), 0);
  for (const auto& failure : failures) {
    ADD_FAILURE() << "endpoint " << failure.endpoint << ": " << failure.identity
                  << " (" << failure.lhs << " != " << failure.rhs << ")";
  }
}

// Satellite: churn regression — create/destroy/recreate the same endpoint
// slot 1000x while cross-traffic flows on neighboring endpoints. Asserts
// slot reuse, cursor + telemetry zeroing on each reincarnation, and that
// the survivors' traffic is unperturbed (no drops, full count).
TEST(FailureScenarios, ChurnSlotReuseUnderCrossTraffic) {
  ScopedPostmortem postmortem("ChurnSlotReuseUnderCrossTraffic");
  auto cluster = MakeStoppedCluster();
  cluster->Start();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  // Cross-traffic: a survivor pair that must be unperturbed by the churn.
  // Its sender keeps at most kCrossWindow messages unconsumed (a credit
  // window equal to the posted buffers), so no-drop holds by construction
  // rather than by the receiver thread keeping up.
  constexpr std::uint64_t kCrossWindow = 64;
  auto rx_cross = b.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = kCrossWindow});
  ASSERT_TRUE(rx_cross.ok());
  for (std::uint64_t i = 0; i < kCrossWindow; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx_cross->PostBuffer(*buffer).ok());
  }
  // The churn sink: deep queue, kept posted by the receiver thread.
  auto rx_sink = b.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = 64});
  ASSERT_TRUE(rx_sink.ok());
  for (int i = 0; i < 64; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx_sink->PostBuffer(*buffer).ok());
  }

  constexpr int kIterations = 1000;
  constexpr std::uint64_t kCrossMessages = 2000;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> cross_received{0};
  std::thread receiver([&] {
    while (!stop.load(std::memory_order_acquire)) {
      bool any = false;
      for (auto* rx : {&*rx_cross, &*rx_sink}) {
        auto message = rx->Receive();
        if (message.ok()) {
          ASSERT_TRUE(rx->PostBuffer(*message).ok());
          if (rx == &*rx_cross) {
            // Release: a sender that sees this credit also sees the repost.
            cross_received.fetch_add(1, std::memory_order_release);
          }
          any = true;
        }
      }
      if (!any) {
        std::this_thread::yield();
      }
    }
  });
  // Created on the main thread BEFORE the churn loop so endpoint slot
  // allocation is deterministic: once the churned endpoint is created
  // (last), its slot is the only one ever freed, so first-fit must hand
  // the same slot back on every reincarnation.
  auto tx_cross = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 8});
  ASSERT_TRUE(tx_cross.ok());
  std::thread cross_sender([&] {
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    for (std::uint64_t i = 0; i < kCrossMessages; ++i) {
      for (int spin = 0;
           spin < 200000 &&
           i - cross_received.load(std::memory_order_acquire) >= kCrossWindow;
           ++spin) {
        std::this_thread::yield();
      }
      while (!tx_cross->Send(*msg, rx_cross->address()).ok()) {
        std::this_thread::yield();
      }
      msg = *PollUntilOk([&] { return tx_cross->Reclaim(); });
    }
  });

  // Churn loop: the churned endpoint is created LAST, so its slot is the
  // lowest-index inactive record with a sufficient cell reservation on
  // every later allocation — the allocator must hand the SAME slot back.
  std::uint32_t churn_slot = shm::kInvalidEndpoint;
  for (int iter = 0; iter < kIterations; ++iter) {
    auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 4});
    ASSERT_TRUE(tx.ok());
    if (churn_slot == shm::kInvalidEndpoint) {
      churn_slot = tx->index();
    } else {
      ASSERT_EQ(tx->index(), churn_slot) << "iteration " << iter;
    }

    // Reincarnation zeroing: cursors and telemetry start from scratch.
    const shm::EndpointRecord& record = a.comm().endpoint(tx->index());
    const shm::TelemetryBlock& t = a.comm().telemetry(tx->index());
    ASSERT_EQ(record.release_count.Read(), 0u) << "iteration " << iter;
    ASSERT_EQ(record.acquire_count.Read(), 0u) << "iteration " << iter;
    ASSERT_EQ(record.processed_total.Read(), 0u) << "iteration " << iter;
    ASSERT_EQ(record.DropCount(), 0u) << "iteration " << iter;
    ASSERT_EQ(t.api_sends.Read(), 0u) << "iteration " << iter;
    ASSERT_EQ(t.engine_transmits.Read(), 0u) << "iteration " << iter;
    ASSERT_EQ(t.engine_rejects.Read(), 0u) << "iteration " << iter;
    ASSERT_EQ(t.doorbell_rings.Read(), 0u) << "iteration " << iter;

    // Drive one message through the reincarnated slot so every iteration
    // exercises ring + transmit + reclaim, then quiesce-destroy.
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(tx->Send(*msg, rx_sink->address()).ok());
    Status destroyed = UnavailableStatus();
    for (int i = 0; i < 200000; ++i) {
      destroyed = a.QuiesceAndDestroyEndpoint(*tx);
      if (destroyed.ok()) {
        break;
      }
      std::this_thread::yield();
    }
    ASSERT_TRUE(destroyed.ok()) << "iteration " << iter;
  }

  cross_sender.join();
  for (int i = 0;
       i < 200000 && cross_received.load(std::memory_order_relaxed) < kCrossMessages;
       ++i) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  receiver.join();

  // Fairness of survivors: the cross stream lost nothing and finished.
  EXPECT_EQ(cross_received.load(), kCrossMessages);
  EXPECT_EQ(rx_cross->DropCount(), 0u);

  cluster->Stop();
  EXPECT_EQ(shm::AuditTelemetryIdentities(a.comm()), 0);
  EXPECT_EQ(shm::AuditTelemetryIdentities(b.comm()), 0);
}

// ---------------------------------------------------------------------------
// Doorbell-level scenarios: a hand-stepped engine over a raw comm buffer,
// so the exact interleaving (ring, destroy, step) is deterministic.
// The queue cursors, not the doorbells, are the truth — a stale or
// misdirected doorbell must be skipped, never misattributed to whatever
// occupies the slot now.
class DoorbellScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    shm::CommBufferConfig config;
    config.message_size = 128;
    config.buffer_count = 32;
    config.max_endpoints = 8;
    fabric_ = std::make_unique<simnet::SimFabric>(
        sim_, std::make_unique<simnet::MeshLinkModel>(), 2);
    auto comm = shm::CommBuffer::Create(config);
    ASSERT_TRUE(comm.ok());
    comm_ = std::move(comm).value();
    engine_ = std::make_unique<engine::MessagingEngine>(
        *comm_, fabric_->wire(0), engine::EngineOptions{}, &model_);
  }

  std::uint32_t MakeEndpoint(shm::EndpointType type) {
    shm::CommBuffer::EndpointParams params;
    params.type = type;
    params.queue_capacity = 8;
    auto index = comm_->AllocateEndpoint(params);
    EXPECT_TRUE(index.ok());
    return *index;
  }

  // Queues one ready-to-send buffer directly and rings its doorbell, as
  // the application library does (the test thread is unbound, so it may
  // touch both sides while stepping manually).
  void QueueSend(std::uint32_t endpoint, Address dst) {
    auto buffer = comm_->AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    shm::MsgView view = comm_->msg(*buffer);
    std::memcpy(view.payload, "stale", 6);
    view.header->set_peer_address(dst);
    view.header->state.Store(waitfree::MsgState::kReady);
    ASSERT_TRUE(comm_->queue(endpoint).Release(*buffer));
    ASSERT_TRUE(comm_->doorbell_ring().Ring(endpoint));
  }

  void StepToQuiescence() {
    bool progress = true;
    while (progress) {
      progress = engine_->Step();
      if (sim_.pending_events() > 0) {
        sim_.Run();
        progress = true;
      }
    }
  }

  simnet::Simulator sim_;
  engine::PlatformModel model_;
  std::unique_ptr<simnet::SimFabric> fabric_;
  std::unique_ptr<shm::CommBuffer> comm_;
  std::unique_ptr<engine::MessagingEngine> engine_;
};

// Satellite regression: ring a send endpoint's doorbell, destroy the
// endpoint before the engine drains the ring, then step. The engine must
// consume the stale doorbell and do nothing with it — no transmit, no
// validity rejection, no crash.
TEST_F(DoorbellScenarioTest, StaleDoorbellForDestroyedEndpointSkipped) {
  const std::uint32_t tx = MakeEndpoint(shm::EndpointType::kSend);

  ASSERT_TRUE(comm_->doorbell_ring().Ring(tx));
  ASSERT_TRUE(comm_->FreeEndpoint(tx).ok());  // destroyed before the drain

  StepToQuiescence();

  const engine::EngineStats& stats = engine_->stats();
  EXPECT_GE(stats.doorbells_consumed, 1u);
  EXPECT_EQ(stats.messages_sent, 0u);
  EXPECT_EQ(stats.validity_rejections, 0u);
  EXPECT_EQ(comm_->doorbell_ring().PendingCount(), 0u);
  EXPECT_EQ(shm::AuditTelemetryIdentities(*comm_), 0);
}

// Slot-reuse variant: the slot is reincarnated (as a RECEIVE endpoint)
// between the ring and the drain. The stale doorbell must not be
// misattributed to the new tenant: no spurious transmit, and the
// reincarnated slot's telemetry stays zeroed.
TEST_F(DoorbellScenarioTest, StaleDoorbellForReusedSlotNotMisattributed) {
  const std::uint32_t tx = MakeEndpoint(shm::EndpointType::kSend);

  ASSERT_TRUE(comm_->doorbell_ring().Ring(tx));
  ASSERT_TRUE(comm_->FreeEndpoint(tx).ok());
  // First-fit reallocation hands the same slot back, now as a receiver.
  const std::uint32_t rx = MakeEndpoint(shm::EndpointType::kReceive);
  ASSERT_EQ(rx, tx);

  StepToQuiescence();

  const engine::EngineStats& stats = engine_->stats();
  EXPECT_GE(stats.doorbells_consumed, 1u);
  EXPECT_EQ(stats.messages_sent, 0u);
  const shm::TelemetryBlock& t = comm_->telemetry(rx);
  EXPECT_EQ(t.engine_transmits.Read(), 0u);
  EXPECT_EQ(t.engine_rejects.Read(), 0u);
  EXPECT_EQ(comm_->endpoint(rx).processed_total.Read(), 0u);
  EXPECT_EQ(shm::AuditTelemetryIdentities(*comm_), 0);
}

// The doorbell ring is application-written, so a corrupt application can
// ring an index past the endpoint table. The engine must consume and count
// that hint and do nothing else with it: activating it would make the
// commit path read and write outside the table.
TEST_F(DoorbellScenarioTest, CorruptDoorbellHintIgnored) {
  ASSERT_TRUE(comm_->doorbell_ring().Ring(0x7ffffff0u));  // >= max_endpoints
  ASSERT_TRUE(comm_->doorbell_ring().Ring(comm_->max_endpoints()));

  StepToQuiescence();

  const engine::EngineStats& stats = engine_->stats();
  EXPECT_EQ(stats.doorbells_consumed, 2u);
  EXPECT_EQ(stats.doorbell_dups, 0u);
  EXPECT_EQ(stats.messages_sent, 0u);
  EXPECT_EQ(stats.validity_rejections, 0u);
  EXPECT_EQ(comm_->doorbell_ring().PendingCount(), 0u);
  // No endpoint record or telemetry block was written.
  for (std::uint32_t i = 0; i < comm_->max_endpoints(); ++i) {
    EXPECT_EQ(comm_->endpoint(i).processed_total.Read(), 0u) << "endpoint " << i;
    EXPECT_EQ(comm_->telemetry(i).engine_transmits.Read(), 0u) << "endpoint " << i;
    EXPECT_EQ(comm_->telemetry(i).engine_rejects.Read(), 0u) << "endpoint " << i;
  }
}

// Satellite regression (the stale-throttle churn bug): a heavily throttled
// endpoint transmits once, is destroyed, and its slot is reallocated to a
// NEW send endpoint whose own bucket starts full. The engine's private
// bucket for the slot still holds the old tenant's empty bucket and
// far-future refill; without the allocation-generation reset the new
// endpoint's first send would stall behind the dead tenant's debt.
TEST_F(DoorbellScenarioTest, SlotReuseDropsPreviousTenantsThrottleState) {
  ManualClock clock;
  clock.AdvanceTo(1'000'000);
  engine_->SetClock(&clock);

  shm::CommBuffer::EndpointParams limited;
  limited.type = shm::EndpointType::kSend;
  limited.queue_capacity = 8;
  limited.bucket_capacity = 1;  // one send per 1 s: poisons the slot after one send
  limited.bucket_refill_ns = 1'000'000'000;
  auto first = comm_->AllocateEndpoint(limited);
  ASSERT_TRUE(first.ok());

  QueueSend(*first, Address(1, 0));
  StepToQuiescence();
  EXPECT_EQ(comm_->telemetry(*first).engine_transmits.Read(), 1u);

  // Drain and destroy; first-fit reallocation hands the same slot to a
  // fresh send endpoint with the same rate limit (a fresh bucket is full).
  EXPECT_NE(comm_->queue(*first).Acquire(), waitfree::kInvalidBuffer);
  ASSERT_TRUE(comm_->FreeEndpoint(*first).ok());
  auto second = comm_->AllocateEndpoint(limited);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(*second, *first);  // same slot recycled

  // WITHOUT advancing the clock: the new tenant spends its first token
  // immediately instead of inheriting the dead tenant's empty bucket.
  QueueSend(*second, Address(1, 0));
  StepToQuiescence();
  EXPECT_EQ(comm_->telemetry(*second).engine_transmits.Read(), 1u);
  EXPECT_EQ(comm_->telemetry(*second).throttle_deferrals.Read(), 0u);
  // (No AuditTelemetryIdentities here: QueueSend releases raw queue slots
  // without the API-side telemetry helpers, which the audit — correctly —
  // reports as an api_sends/release_count mismatch.)
}

}  // namespace
}  // namespace flipc
