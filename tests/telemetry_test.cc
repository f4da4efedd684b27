// Tests for the wait-free telemetry layer: the comm-buffer-resident
// TelemetryBlock (per-endpoint counters on cache-line-separated app/engine
// halves) and the engine's host-memory flight recorder (sweep-cause
// counters, latency histograms).
//
// The headline property throughout: telemetry is redundant with the queue
// cursors by design, so every identity below is checkable against state
// the system already maintains. A counter that drifts from its cursor is a
// bug in the telemetry placement, not a tolerance to widen.
#include <memory>

#include <gtest/gtest.h>

#include "src/engine/messaging_engine.h"
#include "src/flipc/flipc.h"
#include "src/shm/telemetry_block.h"
#include "src/waitfree/boundary_check.h"

namespace flipc {
namespace {

std::uint32_t Low32(std::uint64_t v) { return static_cast<std::uint32_t>(v); }

std::unique_ptr<SimCluster> TwoNodes() {
  SimCluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 128;
  options.comm.buffer_count = 64;
  options.comm.max_endpoints = 16;
  auto cluster = SimCluster::Create(std::move(options));
  EXPECT_TRUE(cluster.ok());
  return std::move(cluster).value();
}

// Drive real traffic through the API and the engine, then check every
// counter identity the telemetry contract promises (telemetry_block.h).
TEST(Telemetry, CountersMatchQueueCursorsAtQuiescence) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 8});
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 8});
  ASSERT_TRUE(rx.ok() && tx.ok());

  for (int i = 0; i < 4; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }
  for (int i = 0; i < 3; ++i) {
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());
  }
  cluster->sim().Run();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rx->Receive().ok());
    ASSERT_TRUE(tx->Reclaim().ok());
  }

  const shm::TelemetryBlock& tx_t = a.comm().telemetry(tx->index());
  const shm::EndpointRecord& tx_r = a.comm().endpoint(tx->index());
  EXPECT_EQ(tx_t.api_sends.Read(), 3u);
  EXPECT_EQ(Low32(tx_t.api_sends.Read()), tx_r.release_count.Read());
  EXPECT_EQ(tx_t.api_reclaims.Read(), 3u);
  EXPECT_EQ(Low32(tx_t.api_reclaims.Read()), tx_r.acquire_count.Read());
  EXPECT_EQ(tx_t.engine_transmits.Read() + tx_t.engine_rejects.Read(),
            tx_r.processed_total.Read());
  EXPECT_EQ(tx_t.engine_transmits.Read(), 3u);
  // Every successful send rang (or attempted to ring) the doorbell.
  EXPECT_EQ(tx_t.doorbell_rings.Read() + tx_t.doorbell_full.Read(), 3u);

  const shm::TelemetryBlock& rx_t = b.comm().telemetry(rx->index());
  const shm::EndpointRecord& rx_r = b.comm().endpoint(rx->index());
  EXPECT_EQ(rx_t.api_posts.Read(), 4u);
  EXPECT_EQ(Low32(rx_t.api_posts.Read()), rx_r.release_count.Read());
  EXPECT_EQ(rx_t.api_receives.Read(), 3u);
  EXPECT_EQ(Low32(rx_t.api_receives.Read()), rx_r.acquire_count.Read());
  EXPECT_EQ(rx_t.engine_deliveries.Read(), rx_r.processed_total.Read());
  EXPECT_EQ(rx_t.engine_deliveries.Read(), 3u);
  EXPECT_EQ(rx->DropCount(), 0u);
}

// A Release refused by a full queue is counted on the rejecting endpoint —
// the observable form of "the application outran its own queue sizing".
TEST(Telemetry, ReleaseRejectedOnFullSendQueue) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 4});
  ASSERT_TRUE(tx.ok());

  // Fill the queue without running the engine, then overflow it.
  for (int i = 0; i < 4; ++i) {
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(tx->Send(*msg, Address(1, 0)).ok());
  }
  auto extra = a.AllocateBuffer();
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(tx->Send(*extra, Address(1, 0)).code(), StatusCode::kUnavailable);

  const shm::TelemetryBlock& t = a.comm().telemetry(tx->index());
  EXPECT_EQ(t.api_sends.Read(), 4u);  // the rejected send is not a send
  EXPECT_EQ(t.releases_rejected.Read(), 1u);
}

// The send-queue high-water mark: three messages staged before the engine
// runs means the first commit observes a backlog of three.
TEST(Telemetry, QueueDepthHighWaterTracksBacklog) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 8});
  ASSERT_TRUE(tx.ok());
  for (int i = 0; i < 3; ++i) {
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(tx->Send(*msg, Address(1, 1)).ok());
  }
  cluster->sim().Run();
  EXPECT_EQ(a.comm().telemetry(tx->index()).queue_depth_high_water.Read(), 3u);
}

// The engine's sweep-cause accounting: the two ring-signalled causes
// partition backstop_sweeps exactly (messaging_engine.h).
TEST(Telemetry, SweepCausesPartitionBackstopSweeps) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 16});
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 16});
  ASSERT_TRUE(rx.ok() && tx.ok());
  for (int i = 0; i < 10; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());
    cluster->sim().Run();
  }
  for (int node = 0; node < 2; ++node) {
    const engine::EngineStats& stats = cluster->engine(node).stats();
    EXPECT_EQ(stats.backstop_sweeps, stats.doorbell_overflows + stats.sweeps_stalled_head)
        << "node " << node;
  }
  EXPECT_GT(cluster->engine(0).stats().outbound_plans, 0u);
}

// The host-memory flight recorder: every committed work unit prices into
// plan_cost_ns, every outbound commit sizes into batch_size.
TEST(Telemetry, EngineHistogramsRecordCommittedWork) {
  auto cluster = TwoNodes();
  engine::EngineTelemetry telemetry;
  cluster->engine(0).SetTelemetry(&telemetry);

  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 8});
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 8});
  ASSERT_TRUE(rx.ok() && tx.ok());
  for (int i = 0; i < 5; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());
  }
  cluster->sim().Run();

  const engine::EngineStats& stats = cluster->engine(0).stats();
  EXPECT_GT(telemetry.plan_cost_ns.total(), 0u);
  EXPECT_EQ(telemetry.batch_size.total(), stats.transmit_batches);
  // All five messages are accounted for across the committed batches.
  EXPECT_EQ(stats.batched_messages + (stats.messages_sent - stats.batched_messages), 5u);
}

// The telemetry table is part of the shared-memory ABI: introduced in
// version 3 (version 5 added the QoS planner cells and counters; versions
// 4, 6, 7 and 8 changed other parts of the layout without moving it), one
// cache-line-aligned block per endpoint slot, visible through Attach.
TEST(Telemetry, CommBufferTelemetryAbi) {
  static_assert(shm::kCommBufferVersion == 8);
  static_assert(sizeof(shm::TelemetryBlock) == 2 * kCacheLineSize);
  static_assert(alignof(shm::TelemetryBlock) == kCacheLineSize);

  shm::CommBufferConfig config;
  config.message_size = 64;
  config.buffer_count = 8;
  config.max_endpoints = 4;
  auto comm = shm::CommBuffer::Create(config);
  ASSERT_TRUE(comm.ok());
  EXPECT_EQ((*comm)->header().version, shm::kCommBufferVersion);
  EXPECT_NE((*comm)->header().telemetry_offset, 0u);
  EXPECT_EQ((*comm)->header().telemetry_offset % kCacheLineSize, 0u);

  // A second mapping of the same bytes sees the same telemetry cells.
  auto attached = shm::CommBuffer::Attach((*comm)->base(), (*comm)->total_size());
  ASSERT_TRUE(attached.ok());
  auto index = (*comm)->AllocateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(index.ok());
  {
    waitfree::ScopedBoundaryRole app(waitfree::Writer::kApplication);
    (*comm)->telemetry(*index).RecordApiSend();
  }
  EXPECT_EQ((*attached)->telemetry(*index).api_sends.Read(), 1u);
}

// Endpoint slots are recycled: stale telemetry from a previous tenant must
// not leak into the next endpoint allocated in the same slot.
TEST(Telemetry, ResetsWhenEndpointSlotIsReused) {
  shm::CommBufferConfig config;
  config.message_size = 64;
  config.buffer_count = 8;
  config.max_endpoints = 4;
  auto comm = shm::CommBuffer::Create(config);
  ASSERT_TRUE(comm.ok());

  auto first = (*comm)->AllocateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(first.ok());
  {
    waitfree::ScopedBoundaryRole app(waitfree::Writer::kApplication);
    (*comm)->telemetry(*first).RecordApiSend();
    (*comm)->telemetry(*first).RecordDoorbell(false);
  }
  {
    waitfree::ScopedBoundaryRole eng(waitfree::Writer::kEngine);
    (*comm)->telemetry(*first).RecordDeadlineMiss();
    (*comm)->telemetry(*first).NoteServiceGap(123);
    (*comm)->telemetry(*first).RecordThrottleDeferral();
  }
  ASSERT_TRUE((*comm)->FreeEndpoint(*first).ok());

  auto second = (*comm)->AllocateEndpoint({.type = shm::EndpointType::kReceive});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *first);  // same slot recycled
  const shm::TelemetryBlock& t = (*comm)->telemetry(*second);
  EXPECT_EQ(t.api_sends.Read(), 0u);
  EXPECT_EQ(t.doorbell_rings.Read(), 0u);
  EXPECT_EQ(t.doorbell_full.Read(), 0u);
  EXPECT_EQ(t.deadline_misses.Read(), 0u);
  EXPECT_EQ(t.max_service_gap_ns.Read(), 0u);
  EXPECT_EQ(t.throttle_deferrals.Read(), 0u);
}

}  // namespace
}  // namespace flipc
