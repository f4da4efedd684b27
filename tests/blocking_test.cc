// Blocking completion detection (paper: "Both polling and blocking
// versions of completion detection are supported") and the real-time
// semantics of the wakeups: priority ordering among blocked application
// threads, per-buffer state polling, and timeouts.
#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "src/flipc/flipc.h"

namespace flipc {
namespace {

std::unique_ptr<Cluster> MakeCluster(std::uint32_t buffer_count = 64) {
  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 128;
  options.comm.buffer_count = buffer_count;
  auto cluster = Cluster::Create(options);
  EXPECT_TRUE(cluster.ok());
  (*cluster)->Start();
  return std::move(cluster).value();
}

// Sender-side blocking: Reclaim blocks until the engine has transmitted.
TEST(Blocking, ReclaimBlockingWakesOnSendCompletion) {
  auto cluster = MakeCluster();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive});
  ASSERT_TRUE(rx.ok());
  auto rx_buf = b.AllocateBuffer();
  ASSERT_TRUE(rx->PostBuffer(*rx_buf).ok());

  auto tx = a.CreateEndpoint(
      {.type = shm::EndpointType::kSend, .enable_semaphore = true});
  ASSERT_TRUE(tx.ok());
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());

  auto reclaimed = tx->ReclaimBlocking(simos::kMinPriority, 5'000'000'000);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(reclaimed->index(), msg->index());
  EXPECT_TRUE(reclaimed->completed());
}

// Per-buffer state polling: "allowing an application to determine when
// processing of a specific buffer is complete."
TEST(Blocking, BufferStatePollsToCompleted) {
  auto cluster = MakeCluster();
  Domain& a = cluster->domain(0);
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(tx.ok());
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(msg.ok());
  EXPECT_FALSE(msg->completed());

  // Send to a destination that drops (no posted buffer) — the SENDER's
  // completion is independent of delivery in the optimistic model.
  auto rx = cluster->domain(1).CreateEndpoint({.type = shm::EndpointType::kReceive});
  ASSERT_TRUE(rx.ok());
  ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());
  for (int spins = 0; !msg->completed() && spins < 1'000'000; ++spins) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(msg->completed());
  // The sender's completion does NOT imply the receiver engine has already
  // processed (and dropped) the message — wait for that side too.
  for (int spins = 0; rx->DropCount() == 0 && spins < 1'000'000; ++spins) {
    std::this_thread::yield();
  }
  EXPECT_EQ(rx->DropCount(), 1u);
}

// Two threads blocked on one endpoint: the higher-priority thread must get
// the first message (the real-time semaphore's scheduling property applied
// at the API level).
TEST(Blocking, HigherPriorityReceiverWinsFirstMessage) {
  auto cluster = MakeCluster();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto rx = b.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = 8, .enable_semaphore = true});
  ASSERT_TRUE(rx.ok());
  for (int i = 0; i < 4; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }

  std::atomic<int> first_winner{0};
  std::atomic<int> blocked{0};
  simos::RealTimeSemaphore* semaphore =
      b.semaphores()->Get(b.comm().endpoint(rx->index()).semaphore_id.Read());
  ASSERT_NE(semaphore, nullptr);

  auto waiter = [&](simos::Priority priority, int id) {
    ++blocked;
    auto message = rx->ReceiveBlocking(priority, 5'000'000'000);
    ASSERT_TRUE(message.ok());
    int expected = 0;
    first_winner.compare_exchange_strong(expected, id);
  };
  std::thread low(waiter, 1, 1);
  std::thread high(waiter, 10, 2);
  // Both threads must be parked inside the semaphore before any message
  // arrives, or the race is meaningless.
  while (semaphore->waiter_count() != 2) {
    std::this_thread::yield();
  }

  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(tx.ok());
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());
  high.join();
  EXPECT_EQ(first_winner.load(), 2);  // high priority won

  auto msg2 = a.AllocateBuffer();
  ASSERT_TRUE(tx->Send(*msg2, rx->address()).ok());
  low.join();
}

TEST(Blocking, ImmediateReturnWhenMessageAlreadyQueued) {
  auto cluster = MakeCluster();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  auto rx = b.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .enable_semaphore = true});
  ASSERT_TRUE(rx.ok());
  auto rx_buf = b.AllocateBuffer();
  ASSERT_TRUE(rx->PostBuffer(*rx_buf).ok());
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(tx.ok());
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());

  // Wait until the message is visibly queued, then block: must not hang.
  while (rx->ReadyCount() == 0) {
    std::this_thread::yield();
  }
  auto received = rx->ReceiveBlocking(simos::kMinPriority, 1'000'000'000);
  EXPECT_TRUE(received.ok());
}

TEST(Blocking, GroupReceiveBlockingTimesOut) {
  auto cluster = MakeCluster();
  Domain& b = cluster->domain(1);
  auto group = EndpointGroup::Create(b);
  ASSERT_TRUE(group.ok());
  Domain::EndpointOptions member;
  member.type = shm::EndpointType::kReceive;
  member.group = group->get();
  auto rx = b.CreateEndpoint(member);
  ASSERT_TRUE(rx.ok());
  const auto result = (*group)->ReceiveBlocking(simos::kMinPriority, 30'000'000);
  EXPECT_EQ(result.status().code(), StatusCode::kTimedOut);
}

// Stress: one blocking consumer drains a 3-member group fed by concurrent
// senders; every message must be consumed exactly once, with no drops and
// no lost wakeups (the classic semaphore-accounting hazard).
TEST(Blocking, GroupConsumerDrainsConcurrentSenders) {
  constexpr int kPerSender = 30;
  auto cluster = MakeCluster(/*buffer_count=*/128);
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto group = EndpointGroup::Create(b);
  ASSERT_TRUE(group.ok());
  std::vector<Endpoint> members;
  for (int i = 0; i < 3; ++i) {
    Domain::EndpointOptions options;
    options.type = shm::EndpointType::kReceive;
    options.queue_depth = 32;
    options.group = group->get();
    auto endpoint = b.CreateEndpoint(options);
    ASSERT_TRUE(endpoint.ok());
    members.push_back(*endpoint);
    // No flow control: no-loss holds by static sizing. Each member posts a
    // buffer for every message its sender will send, so a consumer starved
    // by the scheduler never leaves a member without a posted buffer.
    for (int j = 0; j < kPerSender; ++j) {
      auto buffer = b.AllocateBuffer();
      ASSERT_TRUE(buffer.ok());
      ASSERT_TRUE(endpoint->PostBuffer(*buffer).ok());
    }
  }

  std::atomic<int> consumed{0};
  std::thread consumer([&] {
    for (int i = 0; i < 3 * kPerSender; ++i) {
      auto result = (*group)->ReceiveBlocking(simos::kMinPriority, 10'000'000'000);
      ASSERT_TRUE(result.ok());
      ++consumed;
      ASSERT_TRUE(result->endpoint.PostBuffer(result->buffer).ok());
    }
  });

  std::vector<std::thread> senders;
  for (int t = 0; t < 3; ++t) {
    senders.emplace_back([&, t] {
      auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 4});
      ASSERT_TRUE(tx.ok());
      auto msg = a.AllocateBuffer();
      ASSERT_TRUE(msg.ok());
      for (int i = 0; i < kPerSender; ++i) {
        while (!tx->Send(*msg, members[static_cast<std::size_t>(t)].address()).ok()) {
          std::this_thread::yield();
        }
        for (;;) {
          auto reclaimed = tx->Reclaim();
          if (reclaimed.ok()) {
            msg = *reclaimed;
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& sender : senders) {
    sender.join();
  }
  consumer.join();
  EXPECT_EQ(consumed.load(), 3 * kPerSender);
  for (Endpoint& rx : members) {
    EXPECT_EQ(rx.DropCount(), 0u);
  }
}

}  // namespace
}  // namespace flipc
