// Tests for the messaging engine: the optimistic transport's delivery and
// discard rules, ordering, validity checks, the protocol framework, and
// the planner's scheduling and rate-limit policies.
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "src/engine/messaging_engine.h"
#include "src/engine/sim_engine_driver.h"
#include "src/flipc/domain.h"
#include "src/shm/comm_buffer.h"
#include "src/shm/telemetry_audit.h"
#include "src/simnet/des.h"
#include "src/simnet/fabric.h"
#include "src/simnet/link_model.h"

namespace flipc::engine {
namespace {

using shm::CommBuffer;
using shm::EndpointType;
using waitfree::BufferIndex;
using waitfree::MsgState;

// Two hand-wired nodes with manually stepped engines: every test drives the
// engines explicitly, so interleavings are exact.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    shm::CommBufferConfig config;
    config.message_size = 128;
    config.buffer_count = 32;
    config.max_endpoints = 8;

    fabric_ = std::make_unique<simnet::SimFabric>(
        sim_, std::make_unique<simnet::MeshLinkModel>(), 2);
    for (int n = 0; n < 2; ++n) {
      auto comm = CommBuffer::Create(config);
      ASSERT_TRUE(comm.ok());
      comm_[n] = std::move(comm).value();
      engine_[n] = std::make_unique<MessagingEngine>(*comm_[n], fabric_->wire(
          static_cast<NodeId>(n)), options_, &model_);
    }
  }

  // Runs both engines and the fabric to quiescence.
  void RunAll() {
    bool progress = true;
    while (progress) {
      progress = false;
      progress |= engine_[0]->Step();
      progress |= engine_[1]->Step();
      if (sim_.pending_events() > 0) {
        sim_.Run();
        progress = true;
      }
    }
  }

  // Creates an endpoint and returns its index.
  std::uint32_t MakeEndpoint(int node, EndpointType type, std::uint32_t depth = 8) {
    CommBuffer::EndpointParams params;
    params.type = type;
    params.queue_capacity = depth;
    auto index = comm_[node]->AllocateEndpoint(params);
    EXPECT_TRUE(index.ok());
    return *index;
  }

  // Rebuilds both engines with the current options_, for tests that tune
  // scheduling knobs (batch size, QoS weights) after SetUp.
  void RebuildEngines() {
    for (int n = 0; n < 2; ++n) {
      engine_[n] = std::make_unique<MessagingEngine>(
          *comm_[n], fabric_->wire(static_cast<NodeId>(n)), options_, &model_);
    }
  }

  // Full-params endpoint creation for the QoS tests.
  std::uint32_t MakeEndpointQos(int node, const CommBuffer::EndpointParams& params) {
    auto index = comm_[node]->AllocateEndpoint(params);
    EXPECT_TRUE(index.ok());
    return *index;
  }

  // Posts a fresh buffer on a receive endpoint; returns its index.
  BufferIndex PostRecvBuffer(int node, std::uint32_t endpoint) {
    auto buffer = comm_[node]->AllocateBuffer();
    EXPECT_TRUE(buffer.ok());
    comm_[node]->msg(*buffer).header->state.Store(MsgState::kReady);
    EXPECT_TRUE(comm_[node]->queue(endpoint).Release(*buffer));
    return *buffer;
  }

  // Rings `endpoint`'s doorbell the way the application library does after
  // a send release.
  void RingDoorbell(int node, std::uint32_t endpoint) {
    waitfree::ScopedBoundaryRole app_role(waitfree::Writer::kApplication);
    EXPECT_TRUE(comm_[node]->doorbell_ring().Ring(endpoint));
  }

  // Queues a send of `text` from `endpoint` on node to a destination
  // without ringing its doorbell.
  BufferIndex ReleaseSend(int node, std::uint32_t endpoint, Address dst,
                          const char* text = "hello") {
    auto buffer = comm_[node]->AllocateBuffer();
    EXPECT_TRUE(buffer.ok());
    shm::MsgView view = comm_[node]->msg(*buffer);
    std::memcpy(view.payload, text, std::strlen(text) + 1);
    view.header->set_peer_address(dst);
    view.header->state.Store(MsgState::kReady);
    EXPECT_TRUE(comm_[node]->queue(endpoint).Release(*buffer));
    return *buffer;
  }

  // Queues a send and rings its doorbell, as Endpoint::Send does.
  BufferIndex QueueSend(int node, std::uint32_t endpoint, Address dst,
                        const char* text = "hello") {
    const BufferIndex buffer = ReleaseSend(node, endpoint, dst, text);
    RingDoorbell(node, endpoint);
    return buffer;
  }

  simnet::Simulator sim_;
  PlatformModel model_;
  EngineOptions options_;
  std::unique_ptr<simnet::SimFabric> fabric_;
  std::unique_ptr<CommBuffer> comm_[2];
  std::unique_ptr<MessagingEngine> engine_[2];
};

TEST_F(EngineTest, TransfersOneMessage) {
  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t rx = MakeEndpoint(1, EndpointType::kReceive);
  const BufferIndex rx_buf = PostRecvBuffer(1, rx);
  const BufferIndex tx_buf = QueueSend(0, tx, Address(1, static_cast<std::uint16_t>(rx)));

  RunAll();

  // Sender side: buffer completed and re-acquirable (step 5).
  EXPECT_TRUE(comm_[0]->msg(tx_buf).header->state.IsCompleted());
  EXPECT_EQ(comm_[0]->queue(tx).Acquire(), tx_buf);

  // Receiver side: message landed in the posted buffer (step 4).
  EXPECT_EQ(comm_[1]->queue(rx).Acquire(), rx_buf);
  shm::MsgView view = comm_[1]->msg(rx_buf);
  EXPECT_STREQ(reinterpret_cast<const char*>(view.payload), "hello");
  EXPECT_TRUE(view.header->state.IsCompleted());
  // The receiver learns the source endpoint address.
  EXPECT_EQ(view.header->peer_address(), Address(0, static_cast<std::uint16_t>(tx)));

  EXPECT_EQ(engine_[0]->stats().messages_sent, 1u);
  EXPECT_EQ(engine_[1]->stats().messages_delivered, 1u);
}

TEST_F(EngineTest, DiscardsWithoutPostedBuffer) {
  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t rx = MakeEndpoint(1, EndpointType::kReceive);
  QueueSend(0, tx, Address(1, static_cast<std::uint16_t>(rx)));

  RunAll();

  EXPECT_EQ(engine_[1]->stats().drops_no_buffer, 1u);
  EXPECT_EQ(comm_[1]->endpoint(rx).DropCount(), 1u);
  // The sender is unaffected — its buffer completed normally (optimistic).
  EXPECT_EQ(engine_[0]->stats().messages_sent, 1u);

  // A buffer posted later receives the NEXT message, not the dropped one.
  const BufferIndex rx_buf = PostRecvBuffer(1, rx);
  QueueSend(0, tx, Address(1, static_cast<std::uint16_t>(rx)), "second");
  RunAll();
  EXPECT_EQ(comm_[1]->queue(rx).Acquire(), rx_buf);
  EXPECT_STREQ(reinterpret_cast<const char*>(comm_[1]->msg(rx_buf).payload), "second");
}

TEST_F(EngineTest, PreservesOrderPerEndpointPair) {
  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t rx = MakeEndpoint(1, EndpointType::kReceive);
  const Address dst(1, static_cast<std::uint16_t>(rx));

  BufferIndex rx_bufs[5];
  for (auto& b : rx_bufs) {
    b = PostRecvBuffer(1, rx);
  }
  for (int i = 0; i < 5; ++i) {
    char text[16];
    std::snprintf(text, sizeof(text), "msg-%d", i);
    QueueSend(0, tx, dst, text);
  }
  RunAll();

  for (int i = 0; i < 5; ++i) {
    const BufferIndex b = comm_[1]->queue(rx).Acquire();
    ASSERT_EQ(b, rx_bufs[i]);  // delivered into buffers in posting order
    char expect[16];
    std::snprintf(expect, sizeof(expect), "msg-%d", i);
    EXPECT_STREQ(reinterpret_cast<const char*>(comm_[1]->msg(b).payload), expect);
  }
}

TEST_F(EngineTest, BadDestinationEndpointCounted) {
  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  QueueSend(0, tx, Address(1, 999));  // out of range at the receiver
  QueueSend(0, tx, Address(1, 5));    // valid index but inactive
  RunAll();
  EXPECT_EQ(engine_[1]->stats().drops_bad_address, 2u);
}

TEST_F(EngineTest, SendToUnknownNodeCompletesBuffer) {
  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  const BufferIndex buffer = QueueSend(0, tx, Address(77, 0));
  RunAll();
  EXPECT_EQ(engine_[0]->stats().drops_bad_address, 1u);
  // The application can still reclaim its buffer.
  EXPECT_EQ(comm_[0]->queue(tx).Acquire(), buffer);
}

TEST_F(EngineTest, SendToWrongTypeEndpointDropped) {
  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t peer_tx = MakeEndpoint(1, EndpointType::kSend);
  QueueSend(0, tx, Address(1, static_cast<std::uint16_t>(peer_tx)));
  RunAll();
  EXPECT_EQ(engine_[1]->stats().drops_bad_address, 1u);
}

TEST_F(EngineTest, InvalidBufferIndexRejectedSafely) {
  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  // An errant application writes garbage into its queue cell.
  ASSERT_TRUE(comm_[0]->queue(tx).Release(0xdeadbeef));
  RingDoorbell(0, tx);
  RunAll();
  EXPECT_EQ(engine_[0]->stats().validity_rejections, 1u);
  EXPECT_EQ(engine_[0]->stats().messages_sent, 0u);
  // The queue advanced past the garbage; the endpoint still works.
  const std::uint32_t rx = MakeEndpoint(1, EndpointType::kReceive);
  PostRecvBuffer(1, rx);
  QueueSend(0, tx, Address(1, static_cast<std::uint16_t>(rx)));
  RunAll();
  EXPECT_EQ(engine_[1]->stats().messages_delivered, 1u);
}

TEST_F(EngineTest, ValidityChecksRejectInvalidDestination) {
  // Rebuild engine 0 with checks on.
  options_.validity_checks = true;
  engine_[0] = std::make_unique<MessagingEngine>(*comm_[0], fabric_->wire(0), options_,
                                                 &model_);
  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  QueueSend(0, tx, Address::Invalid());
  RunAll();
  EXPECT_EQ(engine_[0]->stats().validity_rejections, 1u);
  EXPECT_EQ(engine_[0]->stats().messages_sent, 0u);
}

TEST_F(EngineTest, RoundRobinAcrossSendEndpoints) {
  const std::uint32_t tx_a = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t tx_b = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t rx = MakeEndpoint(1, EndpointType::kReceive);
  const Address dst(1, static_cast<std::uint16_t>(rx));
  for (int i = 0; i < 4; ++i) {
    PostRecvBuffer(1, rx);
  }
  QueueSend(0, tx_a, dst, "a1");
  QueueSend(0, tx_a, dst, "a2");
  QueueSend(0, tx_b, dst, "b1");
  QueueSend(0, tx_b, dst, "b2");

  // Step the sender engine four times: round-robin must alternate.
  std::vector<std::string> arrival_order;
  for (int i = 0; i < 4; ++i) {
    engine_[0]->Step();
  }
  sim_.Run();
  while (engine_[1]->Step()) {
  }
  waitfree::BufferQueueView rx_queue = comm_[1]->queue(rx);
  for (int i = 0; i < 4; ++i) {
    const BufferIndex b = rx_queue.Acquire();
    ASSERT_NE(b, waitfree::kInvalidBuffer);
    arrival_order.emplace_back(reinterpret_cast<const char*>(comm_[1]->msg(b).payload));
  }
  EXPECT_EQ(arrival_order, (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
}

// A real-time preemption must not reset the round-robin rotation point:
// after every RT (deadline_ns) send, the planner resumes the non-RT
// rotation where it left off, so no non-RT endpoint is re-served ahead of
// the ones behind it (a rotation reset would starve them).
TEST_F(EngineTest, RealTimePreemptionDoesNotResetRotation) {
  options_.transmit_batch = 1;  // one message per unit: preemption between steps
  RebuildEngines();
  const std::uint32_t low[3] = {MakeEndpoint(0, EndpointType::kSend),
                                MakeEndpoint(0, EndpointType::kSend),
                                MakeEndpoint(0, EndpointType::kSend)};
  CommBuffer::EndpointParams rt_params;
  rt_params.type = EndpointType::kSend;
  rt_params.queue_capacity = 8;
  rt_params.deadline_ns = 100'000;
  const std::uint32_t high = MakeEndpointQos(0, rt_params);
  const std::uint32_t rx = MakeEndpoint(1, EndpointType::kReceive);
  const Address dst(1, static_cast<std::uint16_t>(rx));
  for (int i = 0; i < 6; ++i) {
    PostRecvBuffer(1, rx);
  }
  for (int e = 0; e < 3; ++e) {
    for (int i = 1; i <= 3; ++i) {
      char text[16];
      std::snprintf(text, sizeof(text), "l%d-%d", e, i);
      QueueSend(0, low[e], dst, text);
    }
  }

  // Three rounds of: one non-RT delivery, then an RT message arrives (its
  // doorbell rung the way the application library does) and preempts. The
  // rotation must still visit each non-RT endpoint once per cycle.
  for (int round = 1; round <= 3; ++round) {
    engine_[0]->Step();  // a non-RT endpoint (the RT queue is empty)
    char text[16];
    std::snprintf(text, sizeof(text), "h%d", round);
    QueueSend(0, high, dst, text);
    engine_[0]->Step();  // the RT endpoint preempts
  }
  sim_.Run();
  while (engine_[1]->Step()) {
  }

  std::vector<std::string> order;
  waitfree::BufferQueueView rx_queue = comm_[1]->queue(rx);
  for (int i = 0; i < 6; ++i) {
    const BufferIndex b = rx_queue.Acquire();
    ASSERT_NE(b, waitfree::kInvalidBuffer);
    order.emplace_back(reinterpret_cast<const char*>(comm_[1]->msg(b).payload));
  }
  EXPECT_EQ(order, (std::vector<std::string>{"l0-1", "h1", "l1-1", "h2", "l2-1", "h3"}));
}

// ------------------------- Doorbell scheduling ------------------------------

TEST_F(EngineTest, DoorbellAvoidsBackstopSweep) {
  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t rx = MakeEndpoint(1, EndpointType::kReceive);
  PostRecvBuffer(1, rx);
  QueueSend(0, tx, Address(1, static_cast<std::uint16_t>(rx)));

  EXPECT_GT(engine_[0]->PlanStep(), 0);
  EXPECT_TRUE(engine_[0]->CommitStep());
  EXPECT_EQ(engine_[0]->stats().doorbells_consumed, 1u);
  EXPECT_EQ(engine_[0]->stats().backstop_sweeps, 0u);  // hint sufficed
  EXPECT_EQ(engine_[0]->stats().messages_sent, 1u);
}

TEST_F(EngineTest, TransmitBatchingCoalescesSameDestination) {
  const std::uint32_t tx_a = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t tx_b = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t rx = MakeEndpoint(1, EndpointType::kReceive);
  const Address dst(1, static_cast<std::uint16_t>(rx));
  for (int i = 0; i < 4; ++i) {
    PostRecvBuffer(1, rx);
  }
  QueueSend(0, tx_a, dst, "a1");
  QueueSend(0, tx_a, dst, "a2");
  QueueSend(0, tx_b, dst, "b1");
  QueueSend(0, tx_b, dst, "b2");

  // Both endpoints target one node: each work unit carries one message per
  // ready endpoint (never two from the same endpoint — that would break
  // round-robin fairness), so two steps move all four messages.
  EXPECT_TRUE(engine_[0]->Step());
  EXPECT_EQ(engine_[0]->stats().messages_sent, 2u);
  EXPECT_TRUE(engine_[0]->Step());
  EXPECT_EQ(engine_[0]->stats().messages_sent, 4u);
  EXPECT_EQ(engine_[0]->stats().transmit_batches, 2u);
  EXPECT_EQ(engine_[0]->stats().batched_messages, 4u);

  sim_.Run();
  while (engine_[1]->Step()) {
  }
  EXPECT_EQ(engine_[1]->stats().messages_delivered, 4u);
}

TEST_F(EngineTest, HooksFire) {
  int receive_hook_calls = 0;
  int send_hook_calls = 0;
  bool last_delivered = false;
  engine_[1]->SetReceiveHook([&](std::uint32_t, bool delivered) {
    ++receive_hook_calls;
    last_delivered = delivered;
  });
  engine_[0]->SetSendCompleteHook([&](std::uint32_t) { ++send_hook_calls; });

  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t rx = MakeEndpoint(1, EndpointType::kReceive);
  QueueSend(0, tx, Address(1, static_cast<std::uint16_t>(rx)));  // will drop
  RunAll();
  EXPECT_EQ(receive_hook_calls, 1);
  EXPECT_FALSE(last_delivered);
  EXPECT_EQ(send_hook_calls, 1);

  PostRecvBuffer(1, rx);
  QueueSend(0, tx, Address(1, static_cast<std::uint16_t>(rx)));
  RunAll();
  EXPECT_EQ(receive_hook_calls, 2);
  EXPECT_TRUE(last_delivered);
  EXPECT_EQ(send_hook_calls, 2);
}

// Stamp, then publish: the delivery hook runs before the release that makes
// the message acquirable, so a stamp taken there never trails a polling
// receiver's acquire.
TEST_F(EngineTest, DeliveryHookRunsBeforeTheMessageIsAcquirable) {
  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t rx = MakeEndpoint(1, EndpointType::kReceive);
  int delivered_calls = 0;
  engine_[1]->SetReceiveHook([&](std::uint32_t endpoint, bool delivered) {
    if (delivered) {
      ++delivered_calls;
      EXPECT_EQ(comm_[1]->queue(endpoint).AcquirableCount(), 0u);
      EXPECT_EQ(comm_[1]->endpoint(endpoint).processed_total.Read(), 0u);
    }
  });
  PostRecvBuffer(1, rx);
  QueueSend(0, tx, Address(1, static_cast<std::uint16_t>(rx)));
  RunAll();
  EXPECT_EQ(delivered_calls, 1);
  EXPECT_EQ(comm_[1]->queue(rx).AcquirableCount(), 1u);
}

// ------------------------- Protocol framework -------------------------------

class RecordingHandler : public ProtocolHandler {
 public:
  void HandlePacket(simnet::Packet packet, simnet::CostAccumulator& cost) override {
    cost.Charge(1234);
    packets.push_back(std::move(packet));
  }
  bool PollWork(simnet::CostAccumulator&) override { return false; }

  std::vector<simnet::Packet> packets;
};

TEST_F(EngineTest, ProtocolFrameworkDispatchesById) {
  RecordingHandler handler;
  ASSERT_TRUE(engine_[1]->RegisterProtocol(simnet::kProtocolKernelIpc, &handler).ok());

  simnet::Packet packet;
  packet.dst_node = 1;
  packet.protocol = simnet::kProtocolKernelIpc;
  packet.payload.resize(64);
  ASSERT_TRUE(fabric_->wire(0).Send(std::move(packet)).ok());
  RunAll();

  ASSERT_EQ(handler.packets.size(), 1u);
  EXPECT_EQ(handler.packets[0].src_node, 0u);
  // Handler cost reaches the deferred-cost channel for the DES driver.
  EXPECT_EQ(engine_[1]->TakeDeferredCost(), 1234);
}

TEST_F(EngineTest, UnknownProtocolCounted) {
  simnet::Packet packet;
  packet.dst_node = 1;
  packet.protocol = 6;  // registered by nobody
  ASSERT_TRUE(fabric_->wire(0).Send(std::move(packet)).ok());
  RunAll();
  EXPECT_EQ(engine_[1]->stats().unknown_protocol_packets, 1u);
}

TEST_F(EngineTest, RegisterProtocolValidation) {
  RecordingHandler handler;
  EXPECT_FALSE(engine_[0]->RegisterProtocol(simnet::kProtocolFlipc, &handler).ok());
  EXPECT_FALSE(engine_[0]->RegisterProtocol(99, &handler).ok());
  EXPECT_TRUE(engine_[0]->RegisterProtocol(3, &handler).ok());
  EXPECT_EQ(engine_[0]->RegisterProtocol(3, &handler).code(),
            StatusCode::kFailedPrecondition);
}

// --------------------------- Plan/commit contract ----------------------------

TEST_F(EngineTest, PlanIsIdempotentUntilCommit) {
  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t rx = MakeEndpoint(1, EndpointType::kReceive);
  PostRecvBuffer(1, rx);
  QueueSend(0, tx, Address(1, static_cast<std::uint16_t>(rx)));

  const DurationNs cost1 = engine_[0]->PlanStep();
  const DurationNs cost2 = engine_[0]->PlanStep();
  EXPECT_GT(cost1, 0);
  EXPECT_EQ(cost1, cost2);
  EXPECT_TRUE(engine_[0]->CommitStep());
  EXPECT_EQ(engine_[0]->PlanStep(), 0);  // no more work
  EXPECT_FALSE(engine_[0]->CommitStep());
}

// HasWork() reports what a plan would act on and reads no endpoint off the
// active list: a release is work once its doorbell or the overflow signal
// announces it, and not before.
TEST_F(EngineTest, HasWorkTracksState) {
  EXPECT_FALSE(engine_[0]->HasWork());
  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  EXPECT_FALSE(engine_[0]->HasWork());
  QueueSend(0, tx, Address(1, 0));
  EXPECT_TRUE(engine_[0]->HasWork());
  engine_[0]->Step();
  EXPECT_FALSE(engine_[0]->HasWork());

  ReleaseSend(0, tx, Address(1, 0));
  EXPECT_FALSE(engine_[0]->HasWork());
  {
    waitfree::ScopedBoundaryRole app_role(waitfree::Writer::kApplication);
    comm_[0]->doorbell_ring().SignalOverflow();
  }
  EXPECT_TRUE(engine_[0]->HasWork());
  EXPECT_TRUE(engine_[0]->Step());
  EXPECT_EQ(engine_[0]->stats().doorbell_overflows, 1u);
  EXPECT_EQ(engine_[0]->stats().messages_sent, 2u);
  EXPECT_FALSE(engine_[0]->HasWork());
}

// A planner dies with queued work and published doorbells; a fresh engine
// built over the abandoned comm buffer rebuilds its scheduling state from
// the authoritative queue cursors (DESIGN.md §14) and finishes the job.
TEST_F(EngineTest, RecoverFromBufferRebuildsSchedulingState) {
  const std::uint32_t tx = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t rx = MakeEndpoint(1, EndpointType::kReceive);
  const Address dst(1, static_cast<std::uint16_t>(rx));
  for (int i = 0; i < 3; ++i) {
    PostRecvBuffer(1, rx);
    QueueSend(0, tx, dst);
  }
  EXPECT_EQ(comm_[0]->doorbell_ring().PendingCount(), 3u);

  // Crash: the engine dies before planning anything. Its heap (stats,
  // planned batch) is gone; the comm buffer is the only survivor.
  engine_[0].reset();
  engine_[0] = std::make_unique<MessagingEngine>(*comm_[0], fabric_->wire(0),
                                                 options_, &model_);
  engine_[0]->RecoverFromBuffer();

  // Scheduling state was rebuilt: the one busy endpoint is active, and
  // the ring was left as it was (no fast-forward).
  EXPECT_EQ(comm_[0]->doorbell_ring().PendingCount(), 3u);
  EXPECT_EQ(engine_[0]->stats().recoveries, 1u);
  EXPECT_EQ(engine_[0]->stats().recovered_active, 1u);

  RunAll();

  // The dead engine's doorbells popped as duplicates of the recovery
  // sweep. The recovery sweep is not a backstop sweep, and no trigger
  // fired: the cause identity holds at zero.
  EXPECT_EQ(comm_[0]->doorbell_ring().PendingCount(), 0u);
  EXPECT_EQ(engine_[0]->stats().doorbells_consumed, 3u);
  EXPECT_EQ(engine_[0]->stats().doorbell_dups, 3u);
  EXPECT_EQ(engine_[0]->stats().backstop_sweeps, 0u);
  EXPECT_EQ(engine_[0]->stats().backstop_sweeps,
            engine_[0]->stats().doorbell_overflows + engine_[0]->stats().sweeps_stalled_head);

  // Nothing lost: all three messages crossed, and the comm-resident
  // telemetry (which survived the crash, unlike engine stats) agrees.
  EXPECT_EQ(engine_[1]->stats().messages_delivered, 3u);
  EXPECT_EQ(comm_[0]->telemetry(tx).engine_transmits.Read(), 3u);
  EXPECT_EQ(comm_[0]->endpoint(tx).processed_total.Read(), 3u);
}

// ------------------------------- QoS planner --------------------------------

// Two backlogged classes with weights 3:1 split a contended interval's
// transmissions 6:2 — the deficit accounting balances earnings and payments
// per message, so the split is exact, not just asymptotic.
TEST_F(EngineTest, WeightedClassesShareTransmitsProportionally) {
  options_.transmit_batch = 1;  // one selection per plan: interleaving visible
  options_.qos_weights = {3, 1, 1, 1};
  RebuildEngines();

  CommBuffer::EndpointParams heavy;
  heavy.type = EndpointType::kSend;
  heavy.queue_capacity = 16;
  heavy.qos_class = 0;
  const std::uint32_t tx_heavy = MakeEndpointQos(0, heavy);
  CommBuffer::EndpointParams light = heavy;
  light.qos_class = 1;
  const std::uint32_t tx_light = MakeEndpointQos(0, light);

  for (int i = 0; i < 8; ++i) {
    QueueSend(0, tx_heavy, Address(1, 0));
    QueueSend(0, tx_light, Address(1, 0));
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(engine_[0]->Step());
  }
  EXPECT_EQ(comm_[0]->telemetry(tx_heavy).engine_transmits.Read(), 6u);
  EXPECT_EQ(comm_[0]->telemetry(tx_light).engine_transmits.Read(), 2u);
}

// Within one class, real-time endpoints (deadline_ns != 0) preempt
// non-real-time ones and order earliest-deadline-first among themselves.
TEST_F(EngineTest, EdfOrdersRealTimeWithinClass) {
  options_.transmit_batch = 1;
  RebuildEngines();

  CommBuffer::EndpointParams params;
  params.type = EndpointType::kSend;
  params.queue_capacity = 8;
  params.deadline_ns = 500'000;
  const std::uint32_t tx_late = MakeEndpointQos(0, params);
  params.deadline_ns = 100'000;
  const std::uint32_t tx_soon = MakeEndpointQos(0, params);
  params.deadline_ns = 0;
  const std::uint32_t tx_bulk = MakeEndpointQos(0, params);

  QueueSend(0, tx_bulk, Address(1, 0));
  QueueSend(0, tx_late, Address(1, 0));
  QueueSend(0, tx_soon, Address(1, 0));

  EXPECT_TRUE(engine_[0]->Step());
  EXPECT_EQ(comm_[0]->telemetry(tx_soon).engine_transmits.Read(), 1u);
  EXPECT_TRUE(engine_[0]->Step());
  EXPECT_EQ(comm_[0]->telemetry(tx_late).engine_transmits.Read(), 1u);
  EXPECT_TRUE(engine_[0]->Step());
  EXPECT_EQ(comm_[0]->telemetry(tx_bulk).engine_transmits.Read(), 1u);
}

// A fresh token bucket drains its full burst back-to-back, then sustains
// one transmission per refill interval; NextUnthrottleTime names the exact
// instant the next token lands.
TEST_F(EngineTest, TokenBucketAllowsBurstThenSustainedRate) {
  ManualClock clock;
  clock.AdvanceTo(1'000'000);
  engine_[0]->SetClock(&clock);

  CommBuffer::EndpointParams params;
  params.type = EndpointType::kSend;
  params.queue_capacity = 8;
  params.bucket_capacity = 3;
  params.bucket_refill_ns = 100'000;
  const std::uint32_t tx = MakeEndpointQos(0, params);
  for (int i = 0; i < 6; ++i) {
    QueueSend(0, tx, Address(1, 0));
  }

  while (engine_[0]->Step()) {
  }
  EXPECT_EQ(comm_[0]->telemetry(tx).engine_transmits.Read(), 3u);
  EXPECT_EQ(engine_[0]->NextUnthrottleTime(), 1'100'000);

  clock.AdvanceTo(1'100'000);
  while (engine_[0]->Step()) {
  }
  EXPECT_EQ(comm_[0]->telemetry(tx).engine_transmits.Read(), 4u);

  // 199,999 ns later only ONE whole token has accrued (the refill schedule
  // keeps the fractional remainder rather than restarting at each spend).
  clock.AdvanceTo(1'299'999);
  while (engine_[0]->Step()) {
  }
  EXPECT_EQ(comm_[0]->telemetry(tx).engine_transmits.Read(), 5u);
  EXPECT_EQ(engine_[0]->NextUnthrottleTime(), 1'300'000);

  clock.AdvanceTo(1'500'000);
  while (engine_[0]->Step()) {
  }
  EXPECT_EQ(comm_[0]->telemetry(tx).engine_transmits.Read(), 6u);
}

// Regression: a fresh bucket is seeded when the planner first sees the slot
// (plan time). A full bucket must not accrue from that seed: the token
// spent at commit comes back one refill after the spend, not one refill
// after the plan, or the bound capacity + elapsed / refill breaks.
TEST_F(EngineTest, FullBucketRefillCountsFromSpend) {
  constexpr TimeNs kT = 1'000'000;
  ManualClock clock;
  clock.AdvanceTo(kT);
  engine_[0]->SetClock(&clock);

  CommBuffer::EndpointParams params;
  params.type = EndpointType::kSend;
  params.queue_capacity = 8;
  params.bucket_capacity = 1;
  params.bucket_refill_ns = 100'000;
  const std::uint32_t tx = MakeEndpointQos(0, params);
  QueueSend(0, tx, Address(1, 0));

  EXPECT_GT(engine_[0]->PlanStep(), 0);
  clock.AdvanceBy(5'000);
  EXPECT_TRUE(engine_[0]->CommitStep());
  EXPECT_EQ(comm_[0]->telemetry(tx).engine_transmits.Read(), 1u);

  QueueSend(0, tx, Address(1, 0));
  EXPECT_EQ(engine_[0]->NextUnthrottleTime(), kT + 105'000);
}

// The starvation counter fires while ready work sits behind a rate gate,
// and stops once the backlog drains.
TEST_F(EngineTest, ThrottleDeferralsCountWhileBacklogWaits) {
  ManualClock clock;
  clock.AdvanceTo(1'000'000);
  engine_[0]->SetClock(&clock);

  CommBuffer::EndpointParams params;
  params.type = EndpointType::kSend;
  params.queue_capacity = 8;
  params.bucket_capacity = 1;  // one send per 100 us
  params.bucket_refill_ns = 100'000;
  const std::uint32_t tx = MakeEndpointQos(0, params);
  QueueSend(0, tx, Address(1, 0));
  QueueSend(0, tx, Address(1, 0));

  while (engine_[0]->Step()) {
  }
  EXPECT_EQ(comm_[0]->telemetry(tx).engine_transmits.Read(), 1u);
  EXPECT_GE(comm_[0]->telemetry(tx).throttle_deferrals.Read(), 1u);

  clock.AdvanceBy(100'000);
  while (engine_[0]->Step()) {
  }
  EXPECT_EQ(comm_[0]->telemetry(tx).engine_transmits.Read(), 2u);
  const std::uint64_t after_drain = comm_[0]->telemetry(tx).throttle_deferrals.Read();
  EXPECT_FALSE(engine_[0]->Step());
  EXPECT_FALSE(engine_[0]->Step());
  EXPECT_EQ(comm_[0]->telemetry(tx).throttle_deferrals.Read(), after_drain);
}

// A head message transmitted after its relative deadline lapses counts one
// deadline miss, and the wait is captured by max_service_gap_ns.
TEST_F(EngineTest, DeadlineMissAndServiceGapRecorded) {
  ManualClock clock;
  clock.AdvanceTo(1'000'000);
  engine_[0]->SetClock(&clock);

  CommBuffer::EndpointParams params;
  params.type = EndpointType::kSend;
  params.queue_capacity = 8;
  params.deadline_ns = 50'000;
  params.bucket_capacity = 1;  // one send per 200 us
  params.bucket_refill_ns = 200'000;
  const std::uint32_t tx = MakeEndpointQos(0, params);
  QueueSend(0, tx, Address(1, 0));
  QueueSend(0, tx, Address(1, 0));

  while (engine_[0]->Step()) {
  }
  // The first message went immediately: no miss, no gap.
  EXPECT_EQ(comm_[0]->telemetry(tx).deadline_misses.Read(), 0u);
  EXPECT_EQ(comm_[0]->telemetry(tx).max_service_gap_ns.Read(), 0u);

  clock.AdvanceBy(200'000);
  while (engine_[0]->Step()) {
  }
  EXPECT_EQ(comm_[0]->telemetry(tx).engine_transmits.Read(), 2u);
  // The second head waited the full 200 us interval against a 50 us
  // deadline: exactly one miss, gap == the wait.
  EXPECT_EQ(comm_[0]->telemetry(tx).deadline_misses.Read(), 1u);
  EXPECT_EQ(comm_[0]->telemetry(tx).max_service_gap_ns.Read(), 200'000u);
}


// ------------------------------ Back-pressure -------------------------------

// Records the sequence number of every packet its engine polls.
class SeqRecordingWire final : public simnet::Wire {
 public:
  explicit SeqRecordingWire(simnet::Wire& inner) : inner_(inner) {}
  Status Send(simnet::Packet packet) override { return inner_.Send(std::move(packet)); }
  bool Poll(simnet::Packet* out) override {
    const bool got = inner_.Poll(out);
    if (got) {
      seqs.push_back(out->seq);
    }
    return got;
  }
  std::size_t PendingCount() const override { return inner_.PendingCount(); }
  NodeId node() const override { return inner_.node(); }

  std::vector<std::uint64_t> seqs;

 private:
  simnet::Wire& inner_;
};

// Two domains on a 2-node ThreadFabric; node 0 has released `messages`
// numbered sends to node 1, which has posted a buffer for each. The
// consumer's wire records the packet sequence numbers it polls.
struct BackPressureRig {
  static constexpr std::uint32_t kDepth = simnet::ThreadFabric::kRingDepth;
  static constexpr std::uint32_t kMessages = kDepth + 8;

  BackPressureRig() {
    for (NodeId n = 0; n < 2; ++n) {
      Domain::Options options;
      options.comm.message_size = 64;
      options.comm.buffer_count = 256;
      options.comm.max_endpoints = 8;
      options.node = n;
      auto domain = Domain::Create(options);
      EXPECT_TRUE(domain.ok());
      domains[n] = std::move(*domain);
    }
    auto tx_or = domains[0]->CreateEndpoint({.type = EndpointType::kSend, .queue_depth = 128});
    auto rx_or = domains[1]->CreateEndpoint({.type = EndpointType::kReceive, .queue_depth = 128});
    EXPECT_TRUE(tx_or.ok());
    EXPECT_TRUE(rx_or.ok());
    tx = std::make_unique<Endpoint>(std::move(*tx_or));
    rx = std::make_unique<Endpoint>(std::move(*rx_or));
    for (std::uint32_t i = 0; i < kMessages; ++i) {
      auto posted = domains[1]->AllocateBuffer();
      EXPECT_TRUE(posted.ok());
      EXPECT_TRUE(rx->PostBufferUnlocked(*posted).ok());
      auto msg = domains[0]->AllocateBuffer();
      EXPECT_TRUE(msg.ok());
      EXPECT_TRUE(msg->Write(&i, sizeof(i)));
      EXPECT_TRUE(tx->SendUnlocked(*msg, rx->address()).ok());
    }
    consumer = std::make_unique<MessagingEngine>(domains[1]->comm(), consumer_wire,
                                                 EngineOptions());
  }

  // Steps `engine` until it reports no work; returns the steps that did.
  static std::uint32_t StepUntilIdle(MessagingEngine& engine) {
    std::uint32_t steps = 0;
    while (engine.Step()) {
      ++steps;
    }
    return steps;
  }

  // Drains the ring, lets the sender finish and checks that every message
  // arrived once, in order, with no sequence number burned.
  void FinishAndCheck(MessagingEngine& sender) {
    StepUntilIdle(*consumer);
    EXPECT_TRUE(sender.HasWork());
    StepUntilIdle(sender);
    StepUntilIdle(*consumer);
    EXPECT_FALSE(sender.HasWork());
    EXPECT_EQ(sender.stats().messages_sent, kMessages);
    EXPECT_EQ(consumer->stats().messages_delivered, kMessages);
    EXPECT_EQ(consumer->stats().drops_no_buffer, 0u);
    EXPECT_EQ(rx->DropCount(), 0u);
    ASSERT_EQ(consumer_wire.seqs.size(), kMessages);
    for (std::uint32_t i = 0; i < kMessages; ++i) {
      EXPECT_EQ(consumer_wire.seqs[i], i);
      auto got = rx->ReceiveUnlocked();
      ASSERT_TRUE(got.ok()) << i;
      std::uint32_t value = 0;
      ASSERT_TRUE(got->Read(&value, sizeof(value)));
      EXPECT_EQ(value, i);
      ASSERT_TRUE(tx->ReclaimUnlocked().ok()) << i;
    }
    EXPECT_EQ(domains[0]->comm().telemetry(tx->index()).engine_transmits.Read(), kMessages);
    std::vector<shm::EndpointIdentityFailure> failures;
    EXPECT_EQ(shm::AuditTelemetryIdentities(domains[0]->comm(), &failures), 0);
    EXPECT_EQ(shm::AuditTelemetryIdentities(domains[1]->comm(), &failures), 0);
    for (const auto& failure : failures) {
      ADD_FAILURE() << "endpoint " << failure.endpoint << ": " << failure.identity;
    }
  }

  simnet::ThreadFabric fabric{2};
  std::unique_ptr<Domain> domains[2];
  std::unique_ptr<Endpoint> tx;
  std::unique_ptr<Endpoint> rx;
  SeqRecordingWire consumer_wire{fabric.wire(1)};
  std::unique_ptr<MessagingEngine> consumer;
};

// The real-thread wire back-pressures once its consumer stops draining.
// With the consumer engine never stepped, the sender transmits one ring's
// worth and then stalls: Step() reports no work, nothing drops, and the
// held-back messages count nowhere — no plan, no transmit telemetry, no
// packet sequence number, no plan-cost sample — and are not HasWork() until
// the ring drains. Stepping the consumer then lets every message through,
// in order, and conservation holds.
TEST(EngineBackPressure, FullRingStallsTheSenderWithoutDrops) {
  constexpr std::uint32_t kDepth = BackPressureRig::kDepth;
  BackPressureRig rig;
  MessagingEngine sender(rig.domains[0]->comm(), rig.fabric.wire(0), EngineOptions());
  EngineTelemetry telemetry;
  sender.SetTelemetry(&telemetry);

  EXPECT_EQ(BackPressureRig::StepUntilIdle(sender), kDepth);
  EXPECT_EQ(sender.stats().messages_sent, kDepth);
  EXPECT_EQ(sender.stats().work_units, kDepth);
  EXPECT_EQ(sender.stats().transmit_batches, kDepth);
  EXPECT_EQ(sender.stats().drops_bad_address, 0u);
  EXPECT_FALSE(sender.Step());  // Still full: no work done, none lost.
  EXPECT_EQ(sender.stats().work_units, kDepth);
  EXPECT_EQ(telemetry.plan_cost_ns.total(), kDepth);
  // The other 8 wait at the queue head, but they are not work until the
  // ring drains: a runner parks here, and the drain wakes it.
  EXPECT_FALSE(sender.HasWork());
  EXPECT_EQ(rig.tx->ProcessedCount(), kDepth);
  EXPECT_EQ(rig.domains[0]->comm().telemetry(rig.tx->index()).engine_transmits.Read(), kDepth);
  std::vector<shm::EndpointIdentityFailure> failures;
  EXPECT_EQ(shm::AuditTelemetryIdentities(rig.domains[0]->comm(), &failures), 0);

  rig.FinishAndCheck(sender);
}

// A wire that cannot report a full ring ahead of the plan (a decorator
// that does not forward BackPressured) refuses at commit instead. The
// refused unit still counts nothing, and the message stays at its queue
// head; only HasWork() keeps reporting it, as the engine cannot tell.
TEST(EngineBackPressure, RefusedAtCommitCountsNothing) {
  constexpr std::uint32_t kDepth = BackPressureRig::kDepth;
  BackPressureRig rig;
  SeqRecordingWire sender_wire(rig.fabric.wire(0));
  MessagingEngine sender(rig.domains[0]->comm(), sender_wire, EngineOptions());
  EngineTelemetry telemetry;
  sender.SetTelemetry(&telemetry);

  EXPECT_EQ(BackPressureRig::StepUntilIdle(sender), kDepth);
  EXPECT_FALSE(sender.Step());
  EXPECT_TRUE(sender.HasWork());
  EXPECT_EQ(sender.stats().messages_sent, kDepth);
  EXPECT_EQ(sender.stats().work_units, kDepth);
  EXPECT_EQ(sender.stats().transmit_batches, kDepth);
  EXPECT_EQ(telemetry.plan_cost_ns.total(), kDepth);
  EXPECT_EQ(rig.tx->ProcessedCount(), kDepth);
  EXPECT_EQ(rig.domains[0]->comm().telemetry(rig.tx->index()).engine_transmits.Read(), kDepth);

  rig.FinishAndCheck(sender);
}

// Stamp, then publish, on the send side: the send hook runs before the
// frame is in the destination's ring, so a tracer's "sent" stamp never
// trails the delivery. It runs once per message, also for the messages a
// full ring held back and a later step sent.
TEST(EngineBackPressure, SendHookRunsOnceBeforeTheFrameIsPublished) {
  constexpr std::uint32_t kDepth = BackPressureRig::kDepth;
  BackPressureRig rig;
  MessagingEngine sender(rig.domains[0]->comm(), rig.fabric.wire(0), EngineOptions());
  std::vector<std::size_t> published_at_hook;
  sender.SetSendCompleteHook([&](std::uint32_t endpoint) {
    EXPECT_EQ(endpoint, rig.tx->index());
    published_at_hook.push_back(rig.fabric.wire(1).PendingCount());
  });

  BackPressureRig::StepUntilIdle(sender);
  ASSERT_EQ(published_at_hook.size(), kDepth);
  rig.FinishAndCheck(sender);  // The consumer drains the full ring first.
  ASSERT_EQ(published_at_hook.size(), BackPressureRig::kMessages);
  for (std::uint32_t i = 0; i < BackPressureRig::kMessages; ++i) {
    EXPECT_EQ(published_at_hook[i], i < kDepth ? i : i - kDepth) << i;
  }
}

// Step() plans once: an idle Step() runs one outbound plan, where the
// commit used to plan a second time, and that plan visits no endpoint.
TEST_F(EngineTest, IdleStepPlansOnce) {
  MakeEndpoint(0, EndpointType::kSend);
  const std::uint64_t plans = engine_[0]->stats().outbound_plans;
  EXPECT_FALSE(engine_[0]->Step());
  EXPECT_EQ(engine_[0]->stats().outbound_plans, plans + 1);
  EXPECT_EQ(engine_[0]->stats().endpoints_visited, 0u);
  EXPECT_EQ(engine_[0]->stats().backstop_sweeps, 0u);
}

// The planner's cost follows ACTIVE endpoints, not configured ones: with
// 1024 slots configured and 2 in use, an idle Step() visits no endpoint and
// a message costs at most 3 visits.
TEST_F(EngineTest, IdleCostIsIndependentOfConfiguredEndpoints) {
  shm::CommBufferConfig config;
  config.message_size = 128;
  config.buffer_count = 64;
  config.max_endpoints = 1024;
  auto comm = CommBuffer::Create(config);
  ASSERT_TRUE(comm.ok());
  comm_[0] = std::move(comm).value();
  RebuildEngines();
  const std::uint32_t tx_a = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t tx_b = MakeEndpoint(0, EndpointType::kSend);
  const std::uint32_t rx = MakeEndpoint(1, EndpointType::kReceive);
  const Address dst(1, static_cast<std::uint16_t>(rx));

  EXPECT_FALSE(engine_[0]->Step());
  EXPECT_EQ(engine_[0]->stats().endpoints_visited, 0u);
  EXPECT_FALSE(engine_[0]->HasWork());

  constexpr int kRounds = 12;
  for (int round = 0; round < kRounds; ++round) {
    PostRecvBuffer(1, rx);
    PostRecvBuffer(1, rx);
    const BufferIndex sent_a = QueueSend(0, tx_a, dst);
    const BufferIndex sent_b = QueueSend(0, tx_b, dst);
    RunAll();
    // RunAll ends on an idle Step(): it visits nothing.
    const std::uint64_t visited = engine_[0]->stats().endpoints_visited;
    EXPECT_FALSE(engine_[0]->Step());
    EXPECT_EQ(engine_[0]->stats().endpoints_visited, visited) << "round " << round;
    // Reclaim and receive, so the queues never fill.
    EXPECT_EQ(comm_[0]->queue(tx_a).Acquire(), sent_a);
    EXPECT_EQ(comm_[0]->queue(tx_b).Acquire(), sent_b);
    ASSERT_TRUE(comm_[0]->FreeBuffer(sent_a).ok());
    ASSERT_TRUE(comm_[0]->FreeBuffer(sent_b).ok());
    EXPECT_NE(comm_[1]->queue(rx).Acquire(), waitfree::kInvalidBuffer);
    EXPECT_NE(comm_[1]->queue(rx).Acquire(), waitfree::kInvalidBuffer);
  }
  const EngineStats& stats = engine_[0]->stats();
  EXPECT_EQ(stats.messages_sent, 2u * kRounds);
  EXPECT_EQ(engine_[1]->stats().messages_delivered, 2u * kRounds);
  EXPECT_LE(stats.endpoints_visited, 3u * stats.messages_sent);
  EXPECT_EQ(stats.backstop_sweeps, 0u);
  EXPECT_FALSE(engine_[0]->HasWork());
}

}  // namespace
}  // namespace flipc::engine
