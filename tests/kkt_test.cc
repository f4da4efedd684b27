// Tests for the KKT-backed engine: RPC-per-message delivery, stop-and-wait
// completion, drop semantics preserved, and portability across the three
// development fabrics (mesh, Ethernet, SCSI) — the paper's "moved ... in
// less than a week" story depends on the platform-independent layers not
// caring which transport runs underneath.
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "src/flipc/flipc.h"
#include "src/flipc/sim_workloads.h"
#include "src/kkt/kkt_engine.h"

namespace flipc::kkt {
namespace {

SimCluster::Options KktOptions(std::unique_ptr<simnet::LinkModel> link = nullptr) {
  SimCluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 128;
  options.comm.buffer_count = 32;
  options.comm.max_endpoints = 8;
  options.engine_kind = SimCluster::EngineKind::kKkt;
  options.link_model = std::move(link);
  return options;
}

TEST(KktEngine, DeliversViaRpc) {
  auto cluster = SimCluster::Create(KktOptions());
  ASSERT_TRUE(cluster.ok());
  SimCluster& c = **cluster;

  Domain& a = c.domain(0);
  Domain& b = c.domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive});
  ASSERT_TRUE(rx.ok());
  auto rx_buf = b.AllocateBuffer();
  ASSERT_TRUE(rx_buf.ok());
  ASSERT_TRUE(rx->PostBuffer(*rx_buf).ok());

  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(tx.ok());
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(msg.ok());
  msg->Write("over-kkt", 9);
  ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());

  c.sim().Run();

  auto received = rx->Receive();
  ASSERT_TRUE(received.ok());
  EXPECT_STREQ(reinterpret_cast<const char*>(received->data()), "over-kkt");

  auto& engine_a = static_cast<KktMessagingEngine&>(c.engine(0));
  auto& engine_b = static_cast<KktMessagingEngine&>(c.engine(1));
  EXPECT_EQ(engine_a.rpcs_sent(), 1u);
  EXPECT_EQ(engine_b.rpcs_served(), 1u);
  // The send buffer completed only after the RPC response.
  EXPECT_TRUE(tx->Reclaim().ok());
}

TEST(KktEngine, PreservesOrderUnderStopAndWait) {
  auto cluster = SimCluster::Create(KktOptions());
  ASSERT_TRUE(cluster.ok());
  SimCluster& c = **cluster;

  Domain& a = c.domain(0);
  Domain& b = c.domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 16});
  ASSERT_TRUE(rx.ok());
  for (int i = 0; i < 8; ++i) {
    auto buf = b.AllocateBuffer();
    ASSERT_TRUE(buf.ok());
    ASSERT_TRUE(rx->PostBuffer(*buf).ok());
  }

  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 16});
  ASSERT_TRUE(tx.ok());
  for (std::uint32_t i = 0; i < 8; ++i) {
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    *msg->As<std::uint32_t>() = i;
    ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());
  }
  c.sim().Run();

  for (std::uint32_t i = 0; i < 8; ++i) {
    auto received = rx->Receive();
    ASSERT_TRUE(received.ok());
    EXPECT_EQ(*received->As<std::uint32_t>(), i);
  }
}

TEST(KktEngine, DropsWithoutBufferAndStillAcks) {
  auto cluster = SimCluster::Create(KktOptions());
  ASSERT_TRUE(cluster.ok());
  SimCluster& c = **cluster;

  Domain& a = c.domain(0);
  Domain& b = c.domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive});
  ASSERT_TRUE(rx.ok());
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(tx.ok());
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());
  c.sim().Run();

  // Dropped at the receiver (optimistic rule applies over KKT too)...
  EXPECT_EQ(rx->DropCount(), 1u);
  // ...but the RPC completed, so the sender recovered its buffer.
  EXPECT_TRUE(tx->Reclaim().ok());
}

// The paper's structural point: KKT's RPC-per-message is much slower than
// the native optimistic engine on identical hardware.
TEST(KktEngine, SlowerThanNativeEngine) {
  auto native = SimCluster::Create([] {
    SimCluster::Options o;
    o.node_count = 2;
    o.comm.message_size = 128;
    return o;
  }());
  ASSERT_TRUE(native.ok());
  auto native_result = sim::RunPingPong(**native, {.exchanges = 50});
  ASSERT_TRUE(native_result.ok());

  auto kkt = SimCluster::Create(KktOptions());
  ASSERT_TRUE(kkt.ok());
  auto kkt_result = sim::RunPingPong(**kkt, {.exchanges = 50});
  ASSERT_TRUE(kkt_result.ok());

  EXPECT_GT(kkt_result->one_way_ns.mean(), 1.5 * native_result->one_way_ns.mean());
}

// Refuses every KKT ack it is asked to send; everything else passes through.
class AckRefusingWire final : public simnet::Wire {
 public:
  explicit AckRefusingWire(simnet::Wire& inner) : inner_(inner) {}
  Status Send(simnet::Packet packet) override {
    if (packet.protocol == simnet::kProtocolKkt && packet.kind == kKktResponse) {
      return UnavailableStatus();
    }
    return inner_.Send(std::move(packet));
  }
  bool Poll(simnet::Packet* out) override { return inner_.Poll(out); }
  std::size_t PendingCount() const override { return inner_.PendingCount(); }
  NodeId node() const override { return inner_.node(); }

 private:
  simnet::Wire& inner_;
};

// KKT sends each ack once and has no retry path, so it needs a wire that
// never refuses. Over one that does, the serving engine aborts with a
// message instead of leaving the requester blocked for good.
TEST(KktEngineDeathTest, RefusedAckAbortsWithAMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        simnet::Simulator sim;
        simnet::SimFabric fabric(sim, std::make_unique<simnet::MeshLinkModel>(), 2);
        AckRefusingWire refusing(fabric.wire(1));
        shm::CommBufferConfig config;
        config.message_size = 64;
        config.buffer_count = 8;
        config.max_endpoints = 4;
        auto comm_a = shm::CommBuffer::Create(config);
        auto comm_b = shm::CommBuffer::Create(config);
        KktMessagingEngine engine_a(**comm_a, fabric.wire(0), engine::EngineOptions{});
        KktMessagingEngine engine_b(**comm_b, refusing, engine::EngineOptions{});
        shm::CommBuffer::EndpointParams params;
        params.type = shm::EndpointType::kSend;
        const std::uint32_t tx = *(*comm_a)->AllocateEndpoint(params);
        const waitfree::BufferIndex buffer = *(*comm_a)->AllocateBuffer();
        (*comm_a)->msg(buffer).header->set_peer_address(Address(1, 0));
        (*comm_a)->msg(buffer).header->state.Store(waitfree::MsgState::kReady);
        (*comm_a)->queue(tx).Release(buffer);
        (*comm_a)->doorbell_ring().Ring(tx);
        engine_a.Step();  // The request enters the fabric.
        sim.Run();
        engine_b.Step();  // Serves it; the ack is refused.
      },
      "FLIPC kkt: the wire refused the ack to node 0");
}

// Portability: the same application code and communication buffer run over
// all three development fabrics; only the timing changes.
class KktPortabilityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(KktPortabilityTest, PingPongCompletesOnEveryFabric) {
  std::unique_ptr<simnet::LinkModel> link;
  const std::string fabric = GetParam();
  if (fabric == "mesh") {
    link = std::make_unique<simnet::MeshLinkModel>();
  } else if (fabric == "ethernet") {
    link = std::make_unique<simnet::EthernetLinkModel>();
  } else {
    link = std::make_unique<simnet::ScsiLinkModel>();
  }
  auto cluster = SimCluster::Create(KktOptions(std::move(link)));
  ASSERT_TRUE(cluster.ok());
  auto result = sim::RunPingPong(**cluster, {.exchanges = 20});
  ASSERT_TRUE(result.ok());
  // 40 one-ways minus the 16 cache-cold samples excluded from steady state.
  EXPECT_EQ(result->one_way_ns.count(), 24u);
  EXPECT_GT(result->one_way_ns.mean(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Fabrics, KktPortabilityTest,
                         ::testing::Values("mesh", "ethernet", "scsi"));

}  // namespace
}  // namespace flipc::kkt
