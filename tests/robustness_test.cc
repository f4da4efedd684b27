// Adversarial robustness: the property the whole engine architecture
// exists for. "Synchronization between the messaging engine and the
// application consists entirely of wait-free synchronization, making it
// impossible for an errant application to stall the communication
// controller" — and the validity checks keep a *malicious* application
// from crashing it. These tests corrupt the communication buffer in the
// ways an errant application could and require the engine to keep serving
// other traffic, never crash, and account every rejection.
#include <memory>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/engine/messaging_engine.h"
#include "src/flipc/flipc.h"
#include "src/flipc/sim_workloads.h"
#include "src/simnet/des.h"
#include "src/simnet/link_model.h"

namespace flipc {
namespace {

std::unique_ptr<SimCluster> TwoNodes(engine::EngineOptions engine_options = {}) {
  SimCluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 128;
  options.comm.buffer_count = 64;
  options.comm.max_endpoints = 8;
  options.engine = engine_options;
  auto cluster = SimCluster::Create(std::move(options));
  EXPECT_TRUE(cluster.ok());
  return std::move(cluster).value();
}

// A well-behaved victim flow that must keep working while an attacker
// corrupts its own endpoints on the same node.
struct VictimFlow {
  Endpoint tx;
  Endpoint rx;

  static VictimFlow Make(SimCluster& cluster) {
    VictimFlow flow;
    auto tx = cluster.domain(0).CreateEndpoint({.type = shm::EndpointType::kSend});
    auto rx = cluster.domain(1).CreateEndpoint({.type = shm::EndpointType::kReceive});
    EXPECT_TRUE(tx.ok() && rx.ok());
    flow.tx = *tx;
    flow.rx = *rx;
    return flow;
  }

  // Sends one message end to end; returns whether it arrived.
  bool SendOne(SimCluster& cluster) {
    auto rx_buf = cluster.domain(1).AllocateBuffer();
    if (!rx_buf.ok() || !rx.PostBuffer(*rx_buf).ok()) {
      return false;
    }
    auto msg = cluster.domain(0).AllocateBuffer();
    if (!msg.ok() || !tx.Send(*msg, rx.address()).ok()) {
      return false;
    }
    cluster.sim().Run();
    const bool arrived = rx.Receive().ok();
    (void)tx.Reclaim();
    return arrived;
  }
};

TEST(Robustness, GarbageBufferIndicesInQueueCells) {
  auto cluster = TwoNodes();
  VictimFlow victim = VictimFlow::Make(*cluster);

  // Attacker: a send endpoint whose queue cells are filled with garbage,
  // each release announced by a doorbell as the library rings it.
  auto attacker = cluster->domain(0).CreateEndpoint(
      {.type = shm::EndpointType::kSend, .queue_depth = 16});
  ASSERT_TRUE(attacker.ok());
  Rng rng(777);
  waitfree::BufferQueueView queue = cluster->domain(0).comm().queue(attacker->index());
  for (int i = 0; i < 16; ++i) {
    queue.Release(static_cast<waitfree::BufferIndex>(rng()));
    cluster->domain(0).comm().doorbell_ring().Ring(attacker->index());
  }
  cluster->domain(0).KickEngine();
  cluster->sim().Run();

  EXPECT_EQ(cluster->engine(0).stats().validity_rejections, 16u);
  EXPECT_TRUE(victim.SendOne(*cluster));  // victim unaffected
}

TEST(Robustness, CorruptDestinationAddresses) {
  engine::EngineOptions options;
  options.validity_checks = true;
  auto cluster = TwoNodes(options);
  VictimFlow victim = VictimFlow::Make(*cluster);

  auto attacker = cluster->domain(0).CreateEndpoint(
      {.type = shm::EndpointType::kSend, .queue_depth = 16});
  ASSERT_TRUE(attacker.ok());
  Rng rng(778);
  for (int i = 0; i < 12; ++i) {
    auto buffer = cluster->domain(0).AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    // Random (mostly bogus) destinations, written directly to the header
    // as a malicious library replacement would; it still rings.
    const Address dst = Address::FromPacked(static_cast<std::uint32_t>(rng()));
    cluster->domain(0).comm().msg(buffer->index()).header->set_peer_address(dst);
    cluster->domain(0).comm().msg(buffer->index()).header->state.Store(
        waitfree::MsgState::kReady);
    ASSERT_TRUE(cluster->domain(0).comm().queue(attacker->index()).Release(buffer->index()));
    cluster->domain(0).comm().doorbell_ring().Ring(attacker->index());
  }
  cluster->domain(0).KickEngine();
  cluster->sim().Run();

  const auto& tx_stats = cluster->engine(0).stats();
  const auto& rx_stats = cluster->engine(1).stats();
  // Every corrupt message was disposed of somewhere sane: rejected at the
  // sender (invalid address / unknown node) or discarded at the receiver
  // (bad endpoint). None may vanish unaccounted.
  EXPECT_EQ(tx_stats.validity_rejections + tx_stats.drops_bad_address +
                rx_stats.drops_bad_address + rx_stats.drops_no_buffer +
                rx_stats.messages_delivered,
            12u);
  EXPECT_TRUE(victim.SendOne(*cluster));
}

TEST(Robustness, RandomizedCorruptionFuzz) {
  // 20 rounds of randomized corruption across queue cells, headers and
  // cursor over-advancement; the engines must survive all of it.
  Rng rng(20'26);
  for (int round = 0; round < 20; ++round) {
    engine::EngineOptions options;
    options.validity_checks = true;
    auto cluster = TwoNodes(options);
    VictimFlow victim = VictimFlow::Make(*cluster);
    shm::CommBuffer& comm = cluster->domain(0).comm();

    auto attacker = cluster->domain(0).CreateEndpoint(
        {.type = shm::EndpointType::kSend, .queue_depth = 16});
    ASSERT_TRUE(attacker.ok());
    waitfree::BufferQueueView queue = comm.queue(attacker->index());

    const int ops = 5 + static_cast<int>(rng.Below(20));
    for (int op = 0; op < ops; ++op) {
      switch (rng.Below(3)) {
        case 0:
          queue.Release(static_cast<waitfree::BufferIndex>(rng()));
          break;
        case 1: {
          auto buffer = comm.AllocateBuffer();
          if (buffer.ok()) {
            shm::MsgView view = comm.msg(*buffer);
            view.header->peer.Publish(static_cast<std::uint32_t>(rng()));
            view.header->state.Store(
                static_cast<waitfree::MsgState>(rng.Below(4)));
            queue.Release(*buffer);
          }
          break;
        }
        case 2: {
          // Corrupt the release cursor itself (jump it forward): the
          // engine sees a huge ProcessableCount full of stale cells.
          shm::EndpointRecord& record = comm.endpoint(attacker->index());
          record.release_count.Publish(record.release_count.ReadRelaxed() +
                                       static_cast<std::uint32_t>(rng.Below(4)));
          break;
        }
      }
      // Every corruption is announced the way the library announces a
      // release; work the engine is never told about is not its problem.
      comm.doorbell_ring().Ring(attacker->index());
    }
    cluster->domain(0).KickEngine();
    // Bounded run: a wedged engine would loop forever re-planning; the
    // event budget catches both crashes and livelocks.
    for (int i = 0; i < 200'000 && cluster->sim().Step(); ++i) {
    }
    EXPECT_TRUE(victim.SendOne(*cluster)) << "victim flow broken in round " << round;
  }
}

TEST(Robustness, EngineSurvivesEndpointChurnDuringTraffic) {
  auto cluster = TwoNodes();
  VictimFlow victim = VictimFlow::Make(*cluster);
  Rng rng(31337);

  for (int round = 0; round < 50; ++round) {
    auto endpoint = cluster->domain(0).CreateEndpoint(
        {.type = rng.Chance(0.5) ? shm::EndpointType::kSend : shm::EndpointType::kReceive,
         .queue_depth = 4});
    if (endpoint.ok()) {
      if (endpoint->type() == shm::EndpointType::kSend && rng.Chance(0.7)) {
        auto buffer = cluster->domain(0).AllocateBuffer();
        if (buffer.ok()) {
          (void)endpoint->Send(*buffer, Address(1, static_cast<std::uint16_t>(rng.Below(8))));
          cluster->sim().Run();
          auto reclaimed = endpoint->Reclaim();
          if (reclaimed.ok()) {
            (void)cluster->domain(0).FreeBuffer(*reclaimed);
          }
        }
      }
      (void)cluster->domain(0).DestroyEndpoint(*endpoint);
    }
    cluster->sim().Run();
  }
  EXPECT_TRUE(victim.SendOne(*cluster));
}

// Determinism: identical configurations and inputs produce bit-identical
// virtual timelines — the property every reproduction bench relies on.
TEST(Determinism, IdenticalRunsProduceIdenticalTimelines) {
  auto run_once = [] {
    auto cluster = TwoNodes();
    sim::PingPongConfig config;
    config.exchanges = 50;
    config.jitter_stddev_ns = 500;
    config.jitter_seed = 13;
    auto result = sim::RunPingPong(*cluster, config);
    EXPECT_TRUE(result.ok());
    return std::make_pair(result->samples_ns, result->finished_at);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Determinism, DifferentSeedsDiffer) {
  auto run_with_seed = [](std::uint64_t seed) {
    auto cluster = TwoNodes();
    sim::PingPongConfig config;
    config.exchanges = 50;
    config.jitter_stddev_ns = 500;
    config.jitter_seed = seed;
    auto result = sim::RunPingPong(*cluster, config);
    EXPECT_TRUE(result.ok());
    return result->samples_ns;
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

}  // namespace
}  // namespace flipc
