// Tests for the future-work extensions the paper names: send-restriction
// protection, capacity (rate) control and the bulk-transfer library.
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/checksum.h"
#include "src/base/rng.h"
#include "src/flipc/flipc.h"
#include "src/flow/bulk_channel.h"

namespace flipc {
namespace {

std::unique_ptr<SimCluster> TwoNodes(std::uint32_t message_size = 128) {
  SimCluster::Options options;
  options.node_count = 2;
  options.comm.message_size = message_size;
  options.comm.buffer_count = 128;
  options.comm.max_endpoints = 16;
  auto cluster = SimCluster::Create(std::move(options));
  EXPECT_TRUE(cluster.ok());
  return std::move(cluster).value();
}

// ------------------------------- Protection ---------------------------------

TEST(Protection, RestrictedEndpointOnlyReachesItsPeer) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto allowed_rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive});
  auto other_rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive});
  ASSERT_TRUE(allowed_rx.ok() && other_rx.ok());
  for (auto* rx : {&*allowed_rx, &*other_rx}) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }

  Domain::EndpointOptions tx_options;
  tx_options.type = shm::EndpointType::kSend;
  tx_options.allowed_peer = allowed_rx->address();
  auto tx = a.CreateEndpoint(tx_options);
  ASSERT_TRUE(tx.ok());

  // To the permitted peer: delivered.
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(tx->Send(*msg, allowed_rx->address()).ok());
  cluster->sim().Run();
  EXPECT_TRUE(allowed_rx->Receive().ok());

  // To anyone else: rejected at the sending engine, buffer still returned.
  auto msg2 = tx->Reclaim();
  ASSERT_TRUE(msg2.ok());
  ASSERT_TRUE(tx->Send(*msg2, other_rx->address()).ok());
  cluster->sim().Run();
  EXPECT_FALSE(other_rx->Receive().ok());
  EXPECT_EQ(cluster->engine(0).stats().protection_rejections, 1u);
  EXPECT_TRUE(tx->Reclaim().ok());  // sender reclaims the rejected buffer
}

TEST(Protection, UnrestrictedEndpointUnaffected) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(tx.ok());
  EXPECT_FALSE(
      Address::FromPacked(a.comm().endpoint(tx->index()).allowed_peer.Read()).valid());
}

// ------------------------------ Rate limiting --------------------------------

TEST(RateLimit, EnforcesMinimumSendSpacing) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 16});
  ASSERT_TRUE(rx.ok());
  for (int i = 0; i < 8; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }

  Domain::EndpointOptions tx_options;
  tx_options.type = shm::EndpointType::kSend;
  tx_options.queue_depth = 16;
  tx_options.bucket_capacity = 1;  // at most one send per 100 us
  tx_options.bucket_refill_ns = 100'000;
  auto tx = a.CreateEndpoint(tx_options);
  ASSERT_TRUE(tx.ok());

  std::vector<TimeNs> deliveries;
  cluster->engine(1).SetReceiveHook([&](std::uint32_t, bool delivered) {
    if (delivered) {
      deliveries.push_back(cluster->sim().Now());
    }
  });

  for (int i = 0; i < 8; ++i) {
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());
  }
  cluster->sim().Run();

  ASSERT_EQ(deliveries.size(), 8u);
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    EXPECT_GE(deliveries[i] - deliveries[i - 1], 100'000);
  }
}

TEST(RateLimit, UnlimitedEndpointUnchanged) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 16});
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 16});
  ASSERT_TRUE(rx.ok() && tx.ok());
  for (int i = 0; i < 4; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());
  }
  cluster->sim().Run();
  // All four deliver back-to-back at engine pace, well under 100 us total.
  EXPECT_EQ(cluster->engine(1).stats().messages_delivered, 4u);
  EXPECT_LT(cluster->sim().Now(), 100'000);
}

TEST(RateLimit, ThrottleDoesNotStarveOtherEndpoints) {
  auto cluster = TwoNodes();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 32});
  ASSERT_TRUE(rx.ok());
  for (int i = 0; i < 16; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }
  Domain::EndpointOptions limited;
  limited.type = shm::EndpointType::kSend;
  limited.queue_depth = 8;
  limited.bucket_capacity = 1;  // one send per 1 ms: heavily throttled
  limited.bucket_refill_ns = 1'000'000;
  auto slow_tx = a.CreateEndpoint(limited);
  auto fast_tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 8});
  ASSERT_TRUE(slow_tx.ok() && fast_tx.ok());

  for (int i = 0; i < 4; ++i) {
    auto m1 = a.AllocateBuffer();
    ASSERT_TRUE(slow_tx->Send(*m1, rx->address()).ok());
    auto m2 = a.AllocateBuffer();
    ASSERT_TRUE(fast_tx->Send(*m2, rx->address()).ok());
  }
  // Within 200 us the fast endpoint's four messages must all arrive even
  // though the throttled endpoint still holds queued work.
  cluster->sim().RunUntil(200'000);
  EXPECT_GE(cluster->engine(1).stats().messages_delivered, 4u);
  cluster->sim().Run();
  EXPECT_EQ(cluster->engine(1).stats().messages_delivered, 8u);
}

// ------------------------------ Bulk transfer --------------------------------

struct BulkPair {
  flow::BulkSender sender;
  flow::BulkReceiver receiver;
};

Result<BulkPair> MakeBulkPair(SimCluster& cluster, std::uint32_t window = 8) {
  Domain& a = cluster.domain(0);
  Domain& b = cluster.domain(1);
  Domain::EndpointOptions tx_options{.type = shm::EndpointType::kSend,
                                     .queue_depth = window < 4 ? 4 : window};
  Domain::EndpointOptions rx_options{.type = shm::EndpointType::kReceive,
                                     .queue_depth = window < 4 ? 4 : window};
  FLIPC_ASSIGN_OR_RETURN(Endpoint data_tx, a.CreateEndpoint(tx_options));
  FLIPC_ASSIGN_OR_RETURN(Endpoint credit_rx, a.CreateEndpoint(rx_options));
  FLIPC_ASSIGN_OR_RETURN(Endpoint data_rx, b.CreateEndpoint(rx_options));
  FLIPC_ASSIGN_OR_RETURN(Endpoint credit_tx, b.CreateEndpoint(tx_options));
  FLIPC_ASSIGN_OR_RETURN(flow::BulkReceiver receiver,
                         flow::BulkReceiver::Create(b, data_rx, credit_tx,
                                                    credit_rx.address(), window));
  FLIPC_ASSIGN_OR_RETURN(flow::BulkSender sender,
                         flow::BulkSender::Create(a, data_tx, credit_rx,
                                                  data_rx.address(), window));
  return BulkPair{std::move(sender), std::move(receiver)};
}

std::vector<std::byte> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> data(n);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng() & 0xff);
  }
  return data;
}

TEST(Bulk, RoundTripsLargeTransferIntact) {
  auto cluster = TwoNodes();
  auto pair = MakeBulkPair(*cluster);
  ASSERT_TRUE(pair.ok());

  const std::vector<std::byte> data = RandomBytes(100'000, 42);
  auto id = pair->sender.Start(data.data(), data.size());
  ASSERT_TRUE(id.ok());

  Result<flow::BulkReceiver::Transfer> done = UnavailableStatus();
  for (int rounds = 0; rounds < 100'000 && !done.ok(); ++rounds) {
    pair->sender.Pump();
    cluster->sim().Run();
    done = pair->receiver.Poll();
  }
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->id, *id);
  EXPECT_TRUE(done->checksum_ok);
  ASSERT_EQ(done->data.size(), data.size());
  EXPECT_EQ(Fnv1a(done->data.data(), done->data.size()),
            Fnv1a(data.data(), data.size()));
  EXPECT_TRUE(pair->sender.SendComplete(*id));
  // No drops anywhere: the window kept the optimistic transport safe.
  EXPECT_EQ(cluster->engine(1).stats().drops_no_buffer, 0u);
}

TEST(Bulk, MultipleTransfersCompleteInOrder) {
  auto cluster = TwoNodes();
  auto pair = MakeBulkPair(*cluster);
  ASSERT_TRUE(pair.ok());

  std::vector<std::vector<std::byte>> payloads;
  std::vector<std::uint32_t> ids;
  for (int t = 0; t < 3; ++t) {
    payloads.push_back(RandomBytes(5'000 + 1'000 * static_cast<std::size_t>(t),
                                   100 + static_cast<std::uint64_t>(t)));
    auto id = pair->sender.Start(payloads.back().data(), payloads.back().size());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  std::vector<flow::BulkReceiver::Transfer> completed;
  for (int rounds = 0; rounds < 100'000 && completed.size() < 3; ++rounds) {
    pair->sender.Pump();
    cluster->sim().Run();
    auto transfer = pair->receiver.Poll();
    if (transfer.ok()) {
      completed.push_back(std::move(*transfer));
    }
  }
  ASSERT_EQ(completed.size(), 3u);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(completed[static_cast<std::size_t>(t)].id, ids[static_cast<std::size_t>(t)]);
    EXPECT_TRUE(completed[static_cast<std::size_t>(t)].checksum_ok);
    EXPECT_EQ(completed[static_cast<std::size_t>(t)].data, payloads[static_cast<std::size_t>(t)]);
  }
}

TEST(Bulk, FragmentMathMatchesPayload) {
  auto cluster = TwoNodes(128);  // 120-byte payload, 88 data bytes per frag
  auto pair = MakeBulkPair(*cluster);
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(pair->sender.fragment_data_bytes(), 120u - flow::kBulkFragHeaderSize);

  const std::vector<std::byte> data = RandomBytes(1'000, 7);
  ASSERT_TRUE(pair->sender.Start(data.data(), data.size()).ok());
  while (pair->sender.Pump()) {
    cluster->sim().Run();
    (void)pair->receiver.Poll();
  }
  cluster->sim().Run();
  const std::uint64_t expected_frags =
      (1'000 + pair->sender.fragment_data_bytes() - 1) / pair->sender.fragment_data_bytes();
  EXPECT_EQ(pair->sender.fragments_sent(), expected_frags);
}

TEST(Bulk, RejectsEmptyTransfer) {
  auto cluster = TwoNodes();
  auto pair = MakeBulkPair(*cluster);
  ASSERT_TRUE(pair.ok());
  EXPECT_FALSE(pair->sender.Start(nullptr, 100).ok());
  std::byte b{};
  EXPECT_FALSE(pair->sender.Start(&b, 0).ok());
}

}  // namespace
}  // namespace flipc
