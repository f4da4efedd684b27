// Tests for the discrete-event simulator and the fabric/link models.
#include <vector>

#include <gtest/gtest.h>

#include "src/simnet/des.h"
#include "src/simnet/fabric.h"
#include "src/simnet/link_model.h"
#include "src/simnet/packet.h"

namespace flipc::simnet {
namespace {

// ----------------------------------- DES ------------------------------------

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulator, EqualTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulator, HandlersMayScheduleMore) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) {
      sim.ScheduleAfter(10, chain);
    }
  };
  sim.ScheduleAt(0, chain);
  sim.Run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.Now(), 40);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.ScheduleAt(100, [] {});
  sim.Run();
  TimeNs fired_at = -1;
  sim.ScheduleAt(5, [&] { fired_at = sim.Now(); });  // in the past
  sim.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, RunWhileReportsStall) {
  Simulator sim;
  bool flag = false;
  sim.ScheduleAt(10, [&] { flag = false; });  // never satisfies
  EXPECT_FALSE(sim.RunWhile([&] { return !flag; }));
}

TEST(CostAccumulator, ChargesAndTakes) {
  CostAccumulator cost;
  cost.Charge(100);
  cost.Charge(50);
  EXPECT_EQ(cost.total(), 150);
  EXPECT_EQ(cost.Take(), 150);
  EXPECT_EQ(cost.total(), 0);
}

// -------------------------------- Link models --------------------------------

TEST(MeshLinkModel, XyHopCount) {
  MeshLinkModel::Params params;
  params.width = 4;
  MeshLinkModel mesh(params);
  EXPECT_EQ(mesh.Hops(0, 0), 0u);
  EXPECT_EQ(mesh.Hops(0, 3), 3u);   // same row
  EXPECT_EQ(mesh.Hops(0, 12), 3u);  // same column (12 = (0,3))
  EXPECT_EQ(mesh.Hops(0, 15), 6u);  // corner to corner
  EXPECT_EQ(mesh.Hops(5, 10), 2u);  // (1,1) -> (2,2)
}

TEST(MeshLinkModel, SerializationAtHardwareRate) {
  MeshLinkModel mesh;  // 5 ns/byte default = 200 MB/s
  EXPECT_EQ(mesh.SerializationNs(0, 1, 200), 1000);
  EXPECT_EQ(mesh.SerializationNs(0, 1, 0), 0);
}

TEST(EthernetAndScsi, HaveExpectedShape) {
  EthernetLinkModel ether;
  ScsiLinkModel scsi;
  // Ethernet: cheap-ish fixed cost but very slow per byte vs SCSI.
  EXPECT_GT(ether.SerializationNs(0, 1, 1000), scsi.SerializationNs(0, 1, 1000));
  // SCSI arbitration makes small transfers expensive.
  EXPECT_GT(scsi.SerializationNs(0, 1, 16), 10'000);
}

// --------------------------------- SimFabric ---------------------------------

Packet MakePacket(NodeId dst, std::size_t bytes, std::uint64_t seq = 0) {
  Packet p;
  p.dst_node = dst;
  p.protocol = kProtocolFlipc;
  p.seq = seq;
  p.payload.resize(bytes);
  return p;
}

TEST(SimFabric, DeliversWithModeledLatency) {
  Simulator sim;
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 4);
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 100)).ok());

  Packet received;
  EXPECT_FALSE(fabric.wire(1).Poll(&received));
  sim.Run();
  ASSERT_TRUE(fabric.wire(1).Poll(&received));
  EXPECT_EQ(received.src_node, 0u);
  EXPECT_EQ(received.payload.size(), 100u);
  // serialization (116 B * 5) + fixed 100 + 1 hop * 40 = 720.
  EXPECT_EQ(sim.Now(), 720);
}

TEST(SimFabric, PerPairFifoEvenWhenSizesDiffer) {
  Simulator sim;
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2);
  // A large packet then a tiny one: the tiny one must not overtake.
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 4096, 1)).ok());
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 8, 2)).ok());
  sim.Run();
  Packet first, second;
  ASSERT_TRUE(fabric.wire(1).Poll(&first));
  ASSERT_TRUE(fabric.wire(1).Poll(&second));
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(second.seq, 2u);
}

TEST(SimFabric, SendsSerializeAtSource) {
  Simulator sim;
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2);
  std::vector<TimeNs> deliveries;
  fabric.SetDeliveryCallback(1, [&] { deliveries.push_back(sim.Now()); });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 984)).ok());  // 1000 B wire
  }
  sim.Run();
  ASSERT_EQ(deliveries.size(), 3u);
  // Each packet needs 5000 ns of wire time; arrivals pace at that interval.
  EXPECT_EQ(deliveries[1] - deliveries[0], 5000);
  EXPECT_EQ(deliveries[2] - deliveries[1], 5000);
}

TEST(SimFabric, UnknownDestinationRejected) {
  Simulator sim;
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2);
  EXPECT_EQ(fabric.wire(0).Send(MakePacket(9, 10)).code(), StatusCode::kNotFound);
}

TEST(SimFabric, FaultInjectionDropsSome) {
  Simulator sim;
  SimFabric::Options options;
  options.fault_plan.seed = 42;
  FaultPlan::LinkFault lossy;  // any -> any
  lossy.drop_probability = 0.5;
  options.fault_plan.links.push_back(lossy);
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2, options);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16)).ok());
  }
  sim.Run();
  std::size_t delivered = 0;
  Packet p;
  while (fabric.wire(1).Poll(&p)) {
    ++delivered;
  }
  EXPECT_EQ(delivered + fabric.packets_dropped_by_fabric(), 200u);
  EXPECT_GT(fabric.packets_dropped_by_fabric(), 50u);
  EXPECT_LT(fabric.packets_dropped_by_fabric(), 150u);
  // Every drop is a logged plan decision.
  EXPECT_EQ(fabric.fault_events().size(), fabric.packets_dropped_by_fabric());
}

TEST(SimFabric, CountsTraffic) {
  Simulator sim;
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2);
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 100)).ok());
  ASSERT_TRUE(fabric.wire(1).Send(MakePacket(0, 50)).ok());
  sim.Run();
  EXPECT_EQ(fabric.packets_sent(), 2u);
  EXPECT_EQ(fabric.bytes_sent(), 100u + 50u + 2 * kPacketWireHeaderBytes);
}

// --------------------------------- FaultPlan ---------------------------------

TEST(FaultPlan, LinkDownWindowDropsOnlyInWindow) {
  Simulator sim;
  SimFabric::Options options;
  FaultPlan::LinkFault fault;
  fault.src = 0;
  fault.dst = 1;
  fault.start = 1000;
  fault.end = 2000;
  fault.down = true;
  options.fault_plan.links.push_back(fault);
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2, options);

  // Before, inside, at end (half-open: end is OUT of the window), and the
  // unmatched reverse direction during the window.
  sim.ScheduleAt(0, [&] { ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16, 1)).ok()); });
  sim.ScheduleAt(1500, [&] { ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16, 2)).ok()); });
  sim.ScheduleAt(2000, [&] { ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16, 3)).ok()); });
  sim.ScheduleAt(1500, [&] { ASSERT_TRUE(fabric.wire(1).Send(MakePacket(0, 16, 4)).ok()); });
  sim.Run();

  std::vector<std::uint64_t> arrived;
  Packet p;
  while (fabric.wire(1).Poll(&p)) {
    arrived.push_back(p.seq);
  }
  EXPECT_EQ(arrived, (std::vector<std::uint64_t>{1, 3}));
  ASSERT_TRUE(fabric.wire(0).Poll(&p));
  EXPECT_EQ(p.seq, 4u);  // reverse direction unaffected

  ASSERT_EQ(fabric.fault_events().size(), 1u);
  EXPECT_EQ(fabric.fault_events()[0].kind, FaultEvent::Kind::kLinkDown);
  EXPECT_EQ(fabric.fault_events()[0].time, 1500);
  EXPECT_EQ(fabric.packets_dropped_by_fabric(), 1u);
}

TEST(FaultPlan, NodeOutageSilencesBothDirections) {
  Simulator sim;
  SimFabric::Options options;
  FaultPlan::NodeFault outage;
  outage.node = 1;
  outage.start = 0;
  outage.end = 1000;
  options.fault_plan.nodes.push_back(outage);
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 3, options);

  sim.ScheduleAt(0, [&] {
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16, 1)).ok());  // into dead node
    ASSERT_TRUE(fabric.wire(1).Send(MakePacket(2, 16, 2)).ok());  // out of dead node
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(2, 16, 3)).ok());  // bystanders talk
  });
  sim.ScheduleAt(1000, [&] {  // window over: node back on the fabric
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16, 4)).ok());
  });
  sim.Run();

  Packet p;
  ASSERT_TRUE(fabric.wire(1).Poll(&p));
  EXPECT_EQ(p.seq, 4u);
  std::vector<std::uint64_t> at_node2;
  while (fabric.wire(2).Poll(&p)) {
    at_node2.push_back(p.seq);
  }
  EXPECT_EQ(at_node2, (std::vector<std::uint64_t>{3}));
  ASSERT_EQ(fabric.fault_events().size(), 2u);
  EXPECT_EQ(fabric.fault_events()[0].kind, FaultEvent::Kind::kNodeDown);
  EXPECT_EQ(fabric.fault_events()[1].kind, FaultEvent::Kind::kNodeDown);
}

TEST(FaultPlan, PartitionDropsOnlyBoundaryCrossings) {
  Simulator sim;
  SimFabric::Options options;
  FaultPlan::Partition partition;
  partition.island = {0};
  partition.start = 0;
  partition.end = kTimeNever;
  options.fault_plan.partitions.push_back(partition);
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 3, options);

  sim.ScheduleAt(0, [&] {
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16, 1)).ok());  // crosses out
    ASSERT_TRUE(fabric.wire(2).Send(MakePacket(0, 16, 2)).ok());  // crosses in
    ASSERT_TRUE(fabric.wire(1).Send(MakePacket(2, 16, 3)).ok());  // mainland only
  });
  sim.Run();

  Packet p;
  EXPECT_FALSE(fabric.wire(1).Poll(&p));
  EXPECT_FALSE(fabric.wire(0).Poll(&p));
  ASSERT_TRUE(fabric.wire(2).Poll(&p));
  EXPECT_EQ(p.seq, 3u);
  ASSERT_EQ(fabric.fault_events().size(), 2u);
  EXPECT_EQ(fabric.fault_events()[0].kind, FaultEvent::Kind::kPartition);
  EXPECT_EQ(fabric.fault_events()[1].kind, FaultEvent::Kind::kPartition);
}

TEST(FaultPlan, DelayShiftsArrivalAndLogsOneEvent) {
  Simulator baseline_sim;
  SimFabric baseline(baseline_sim, std::make_unique<MeshLinkModel>(), 2);
  ASSERT_TRUE(baseline.wire(0).Send(MakePacket(1, 100)).ok());
  TimeNs baseline_arrival = 0;
  baseline.SetDeliveryCallback(1, [&] { baseline_arrival = baseline_sim.Now(); });
  baseline_sim.Run();

  Simulator sim;
  SimFabric::Options options;
  FaultPlan::LinkFault slow;
  slow.extra_delay_ns = 5000;  // any->any, always active
  options.fault_plan.links.push_back(slow);
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2, options);
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 100)).ok());
  TimeNs delayed_arrival = 0;
  fabric.SetDeliveryCallback(1, [&] { delayed_arrival = sim.Now(); });
  sim.Run();

  EXPECT_EQ(delayed_arrival, baseline_arrival + 5000);
  ASSERT_EQ(fabric.fault_events().size(), 1u);
  EXPECT_EQ(fabric.fault_events()[0].kind, FaultEvent::Kind::kDelay);
  EXPECT_EQ(fabric.fault_events()[0].delay_ns, 5000);
  EXPECT_EQ(fabric.packets_dropped_by_fabric(), 0u);  // delayed, not lost
}

// Satellite: the seeding contract. The same seeded plan over the same
// DES-ordered workload must produce a byte-identical fault log; a
// different seed must diverge.
std::string RunSeededFaultWorkload(std::uint64_t seed) {
  Simulator sim;
  SimFabric::Options options;
  FaultPlan::LinkFault flaky;          // any->any, p = 0.4, always active
  flaky.drop_probability = 0.4;
  options.fault_plan.links.push_back(flaky);
  options.fault_plan.seed = seed;
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 3, options);
  for (int i = 0; i < 200; ++i) {
    sim.ScheduleAt(i * 100, [&fabric, i] {
      ASSERT_TRUE(fabric.wire(i % 3).Send(MakePacket((i + 1) % 3, 16, i)).ok());
    });
  }
  sim.Run();
  return FormatFaultLog(fabric.fault_events());
}

TEST(FaultPlan, SeededReplayIsByteIdentical) {
  const std::string first = RunSeededFaultWorkload(7);
  const std::string second = RunSeededFaultWorkload(7);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  const std::string other_seed = RunSeededFaultWorkload(8);
  EXPECT_NE(first, other_seed);
}

// -------------------------------- ThreadFabric -------------------------------

TEST(ThreadFabric, ImmediateInOrderDelivery) {
  ThreadFabric fabric(2);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 8, i)).ok());
  }
  EXPECT_EQ(fabric.wire(1).PendingCount(), 10u);
  Packet p;
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(fabric.wire(1).Poll(&p));
    EXPECT_EQ(p.seq, i);
    EXPECT_EQ(p.src_node, 0u);
  }
  EXPECT_FALSE(fabric.wire(1).Poll(&p));
}

TEST(ThreadFabric, DeliveryCallbackFires) {
  ThreadFabric fabric(2);
  int calls = 0;
  fabric.SetDeliveryCallback(1, [&] { ++calls; });
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 8)).ok());
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 8)).ok());
  EXPECT_EQ(calls, 2);
}

// Per-(src,dst) FIFO with interleaved sources: each source has its own ring
// into node 1, so the poll may interleave sources but never reorders one.
TEST(ThreadFabric, PerPairFifoWithInterleavedSources) {
  ThreadFabric fabric(3);
  constexpr std::uint64_t kPerSource = 40;
  for (std::uint64_t i = 0; i < kPerSource; ++i) {
    for (NodeId src : {0u, 2u}) {
      Packet p = MakePacket(1, 16, i);
      p.payload.data()[0] = static_cast<std::byte>(src);
      p.payload.data()[15] = static_cast<std::byte>(i);
      ASSERT_TRUE(fabric.wire(src).Send(std::move(p)).ok());
    }
    // Node 1 talks back to node 0 meanwhile; rings are per pair.
    ASSERT_TRUE(fabric.wire(1).Send(MakePacket(0, 4, i)).ok());
  }
  EXPECT_EQ(fabric.wire(1).PendingCount(), 2 * kPerSource);
  EXPECT_EQ(fabric.wire(0).PendingCount(), kPerSource);

  std::uint64_t next[3] = {0, 0, 0};
  Packet p;
  while (fabric.wire(1).Poll(&p)) {
    ASSERT_TRUE(p.src_node == 0 || p.src_node == 2) << p.src_node;
    EXPECT_EQ(p.dst_node, 1u);
    EXPECT_EQ(p.seq, next[p.src_node]) << "source " << p.src_node;
    ASSERT_EQ(p.payload.size(), 16u);
    EXPECT_EQ(p.payload.data()[0], static_cast<std::byte>(p.src_node));
    EXPECT_EQ(p.payload.data()[15], static_cast<std::byte>(p.seq));
    ++next[p.src_node];
  }
  EXPECT_EQ(next[0], kPerSource);
  EXPECT_EQ(next[2], kPerSource);
  for (std::uint64_t i = 0; i < kPerSource; ++i) {
    ASSERT_TRUE(fabric.wire(0).Poll(&p));
    EXPECT_EQ(p.src_node, 1u);
    EXPECT_EQ(p.seq, i);
  }
  EXPECT_FALSE(fabric.wire(0).Poll(&p));
  EXPECT_EQ(fabric.wire(2).PendingCount(), 0u);
}

// A full ring back-pressures: the refused send reports kUnavailable and
// delivers nothing (no frame, no callback); one poll frees one slot.
TEST(ThreadFabric, FullRingRefusesWithoutDelivering) {
  ThreadFabric fabric(2);
  int delivered = 0;
  fabric.SetDeliveryCallback(1, [&] { ++delivered; });
  for (std::uint64_t i = 0; i < ThreadFabric::kRingDepth; ++i) {
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 8, i)).ok()) << i;
  }
  const Status refused = fabric.wire(0).Send(MakePacket(1, 8, 999));
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_EQ(delivered, static_cast<int>(ThreadFabric::kRingDepth));
  EXPECT_EQ(fabric.wire(1).PendingCount(), ThreadFabric::kRingDepth);
  // Other pairs are unaffected by the full one.
  EXPECT_TRUE(fabric.wire(1).Send(MakePacket(0, 8)).ok());

  Packet p;
  ASSERT_TRUE(fabric.wire(1).Poll(&p));
  EXPECT_EQ(p.seq, 0u);
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 8, ThreadFabric::kRingDepth)).ok());
  for (std::uint64_t i = 1; i <= ThreadFabric::kRingDepth; ++i) {
    ASSERT_TRUE(fabric.wire(1).Poll(&p));
    EXPECT_EQ(p.seq, i);  // The refused packet never entered the ring.
  }
  EXPECT_FALSE(fabric.wire(1).Poll(&p));
}

// A payload larger than the fabric's frame is a final error, not
// back-pressure; a fabric sized for bigger messages carries it.
TEST(ThreadFabric, FrameSizeBoundsThePayload) {
  ThreadFabric small(2);
  EXPECT_TRUE(small.wire(0).Send(MakePacket(1, ThreadFabric::kDefaultFrameBytes)).ok());
  EXPECT_EQ(small.wire(0).Send(MakePacket(1, ThreadFabric::kDefaultFrameBytes + 1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(small.wire(0).Send(MakePacket(7, 8)).code(), StatusCode::kNotFound);

  ThreadFabric large(2, 1024);
  Packet big = MakePacket(1, 1016);
  big.payload.data()[1015] = std::byte{0x5a};
  ASSERT_TRUE(large.wire(0).Send(std::move(big)).ok());
  Packet p;
  ASSERT_TRUE(large.wire(1).Poll(&p));
  ASSERT_EQ(p.payload.size(), 1016u);
  EXPECT_EQ(p.payload.data()[1015], std::byte{0x5a});
}

// ------------------------------- PacketPayload -------------------------------

TEST(PacketPayload, InlineCopiesAndMovesKeepTheBytes) {
  PacketPayload a;
  EXPECT_TRUE(a.empty());
  a.resize(3);
  EXPECT_EQ(a.data()[2], std::byte{0});  // resize zero-fills new bytes
  const std::byte bytes[4] = {std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4}};
  a.assign(bytes, bytes + 4);
  PacketPayload b(a);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b.data()[3], std::byte{4});
  EXPECT_NE(b.data(), a.data());
  PacketPayload c(std::move(b));
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.data()[0], std::byte{1});
  c.resize(2);
  c.resize(4);
  EXPECT_EQ(c.data()[1], std::byte{2});
  EXPECT_EQ(c.data()[2], std::byte{0});
}

TEST(PacketPayload, LargePayloadFallsBackToTheHeap) {
  PacketPayload a;
  a.resize(10);
  a.data()[9] = std::byte{7};
  a.resize(PacketPayload::kInlineCapacity + 100);  // grows onto the heap
  EXPECT_EQ(a.data()[9], std::byte{7});
  EXPECT_EQ(a.data()[PacketPayload::kInlineCapacity + 99], std::byte{0});
  const std::byte* heap = a.data();
  PacketPayload b(std::move(a));
  EXPECT_EQ(b.data(), heap);  // a heap buffer moves by pointer
  EXPECT_EQ(b.size(), PacketPayload::kInlineCapacity + 100);
  PacketPayload c;
  c = b;
  EXPECT_EQ(c.size(), b.size());
  EXPECT_EQ(c.data()[9], std::byte{7});
  c = PacketPayload();
  EXPECT_TRUE(c.empty());
}

}  // namespace
}  // namespace flipc::simnet
