// Real-concurrency tests: engines on their own threads (the "message
// coprocessor"), applications on the main/test threads, blocking receives
// through the real-time semaphore. These exercise the same wait-free
// structures under genuine parallel execution.
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/flipc/flipc.h"
#include "tests/poll_backoff.h"

namespace flipc {
namespace {

std::unique_ptr<Cluster> MakeCluster(std::uint32_t nodes = 2) {
  Cluster::Options options;
  options.node_count = nodes;
  options.comm.message_size = 128;
  options.comm.buffer_count = 256;
  options.comm.max_endpoints = 16;
  auto cluster = Cluster::Create(options);
  EXPECT_TRUE(cluster.ok());
  (*cluster)->Start();
  return std::move(cluster).value();
}

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

TEST(Cluster, PollingPingPong) {
  auto cluster = MakeCluster();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto a_rx = a.CreateEndpoint({.type = shm::EndpointType::kReceive});
  auto a_tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  auto b_rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive});
  auto b_tx = b.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(a_rx.ok() && a_tx.ok() && b_rx.ok() && b_tx.ok());

  for (Domain* d : {&a, &b}) {
    Endpoint& rx = d == &a ? *a_rx : *b_rx;
    auto buffer = d->AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx.PostBuffer(*buffer).ok());
  }

  constexpr int kExchanges = 200;
  std::thread responder([&] {
    for (int i = 0; i < kExchanges; ++i) {
      auto message = PollUntilOk([&] { return b_rx->Receive(); });
      ASSERT_TRUE(message.ok());
      const std::uint32_t value = *message->As<std::uint32_t>();
      ASSERT_TRUE(b_rx->PostBuffer(*message).ok());

      auto reply = i == 0 ? b.AllocateBuffer() : PollUntilOk([&] { return b_tx->Reclaim(); });
      ASSERT_TRUE(reply.ok());
      *reply->As<std::uint32_t>() = value + 1;
      ASSERT_TRUE(b_tx->Send(*reply, a_rx->address()).ok());
    }
  });

  for (std::uint32_t i = 0; i < kExchanges; ++i) {
    auto msg = i == 0 ? a.AllocateBuffer() : PollUntilOk([&] { return a_tx->Reclaim(); });
    ASSERT_TRUE(msg.ok());
    *msg->As<std::uint32_t>() = i * 2;
    ASSERT_TRUE(a_tx->Send(*msg, b_rx->address()).ok());

    auto reply = PollUntilOk([&] { return a_rx->Receive(); });
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(*reply->As<std::uint32_t>(), i * 2 + 1);
    ASSERT_TRUE(a_rx->PostBuffer(*reply).ok());
  }
  responder.join();
  EXPECT_EQ(a_rx->DropCount(), 0u);
  EXPECT_EQ(b_rx->DropCount(), 0u);
}

TEST(Cluster, BlockingReceiveWakesOnArrival) {
  auto cluster = MakeCluster();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto rx = b.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .enable_semaphore = true});
  ASSERT_TRUE(rx.ok());
  auto rx_buf = b.AllocateBuffer();
  ASSERT_TRUE(rx_buf.ok());
  ASSERT_TRUE(rx->PostBuffer(*rx_buf).ok());

  std::atomic<bool> got{false};
  std::thread receiver([&] {
    auto message = rx->ReceiveBlocking(simos::kMinPriority, 5'000'000'000);
    ASSERT_TRUE(message.ok());
    EXPECT_STREQ(reinterpret_cast<const char*>(message->data()), "wake-up");
    got.store(true);
  });

  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(tx.ok());
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(msg.ok());
  msg->Write("wake-up", 8);
  ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());

  receiver.join();
  EXPECT_TRUE(got.load());
}

TEST(Cluster, BlockingReceiveTimesOut) {
  auto cluster = MakeCluster();
  auto rx = cluster->domain(0).CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .enable_semaphore = true});
  ASSERT_TRUE(rx.ok());
  const auto result = rx->ReceiveBlocking(simos::kMinPriority, 50'000'000);  // 50 ms
  EXPECT_EQ(result.status().code(), StatusCode::kTimedOut);
}

TEST(Cluster, BlockingReceiveRequiresSemaphore) {
  auto cluster = MakeCluster();
  auto rx = cluster->domain(0).CreateEndpoint({.type = shm::EndpointType::kReceive});
  ASSERT_TRUE(rx.ok());
  EXPECT_EQ(rx->ReceiveBlocking(0, 1000).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Cluster, GroupBlockingReceiveAcrossEndpoints) {
  auto cluster = MakeCluster();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto group = EndpointGroup::Create(b);
  ASSERT_TRUE(group.ok());
  Domain::EndpointOptions member;
  member.type = shm::EndpointType::kReceive;
  member.group = group->get();
  auto rx1 = b.CreateEndpoint(member);
  auto rx2 = b.CreateEndpoint(member);
  ASSERT_TRUE(rx1.ok() && rx2.ok());
  for (auto* rx : {&*rx1, &*rx2}) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }

  std::thread receiver([&] {
    auto first = (*group)->ReceiveBlocking(simos::kMinPriority, 5'000'000'000);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->endpoint.index(), rx2->index());
  });

  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(tx.ok());
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(tx->Send(*msg, rx2->address()).ok());
  receiver.join();
}

TEST(Cluster, ManyToOneTrafficNoLoss) {
  constexpr int kSenders = 3;
  constexpr int kPerSender = 40;
  // No flow control: no-loss holds by static sizing. The sink posts a
  // buffer for every message the senders will ever send, so even a sink
  // starved by the scheduler never meets an empty receive queue.
  constexpr int kInFlightBound = kSenders * kPerSender;
  auto cluster = MakeCluster(4);
  Domain& sink_domain = cluster->domain(3);
  auto sink = sink_domain.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = 128});
  ASSERT_TRUE(sink.ok());
  for (int i = 0; i < kInFlightBound; ++i) {
    auto buffer = sink_domain.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(sink->PostBuffer(*buffer).ok());
  }

  // jthreads join on every exit path, so a failed ASSERT below reports
  // instead of destroying joinable threads (std::terminate).
  std::vector<std::jthread> senders;
  for (NodeId n = 0; n < kSenders; ++n) {
    senders.emplace_back([&, n] {
      Domain& d = cluster->domain(n);
      auto tx = d.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 4});
      ASSERT_TRUE(tx.ok());
      auto msg = d.AllocateBuffer();
      ASSERT_TRUE(msg.ok());
      for (std::uint32_t i = 0; i < kPerSender; ++i) {
        *msg->As<std::uint32_t>() = (n << 16) | i;
        ASSERT_TRUE(tx->Send(*msg, sink->address()).ok());
        msg = *PollUntilOk([&] { return tx->Reclaim(); });
      }
    });
  }

  int received = 0;
  std::uint32_t last_seq[kSenders] = {0, 0, 0};
  bool seen[kSenders] = {false, false, false};
  while (received < kInFlightBound) {
    auto message = PollUntilOk([&] { return sink->Receive(); });
    ASSERT_TRUE(message.ok());
    const std::uint32_t value = *message->As<std::uint32_t>();
    const std::uint32_t sender = value >> 16;
    const std::uint32_t seq = value & 0xffff;
    ASSERT_LT(sender, static_cast<std::uint32_t>(kSenders));
    if (seen[sender]) {
      EXPECT_EQ(seq, last_seq[sender] + 1);  // per-pair FIFO
    } else {
      EXPECT_EQ(seq, 0u);
      seen[sender] = true;
    }
    last_seq[sender] = seq;
    ASSERT_TRUE(sink->PostBuffer(*message).ok());
    ++received;
  }
  EXPECT_EQ(sink->DropCount(), 0u);
}

TEST(Cluster, LockedVariantsSafeWithConcurrentSenders) {
  constexpr int kPerThread = 50;
  auto cluster = MakeCluster();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  // No flow control: no-loss holds by static sizing, one posted buffer for
  // every message the two senders will send.
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 128});
  ASSERT_TRUE(rx.ok());
  for (int i = 0; i < 2 * kPerThread; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }

  // Two application threads share ONE send endpoint using the locked
  // variants — the configuration the paper's default interface supports.
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 32});
  ASSERT_TRUE(tx.ok());
  std::atomic<int> sent{0};
  auto sender = [&] {
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    for (int i = 0; i < kPerThread; ++i) {
      while (!tx->Send(*msg, rx->address()).ok()) {
        std::this_thread::yield();
      }
      ++sent;
      msg = *PollUntilOk([&] { return tx->Reclaim(); });
    }
  };
  {
    // jthreads join on every exit path (see ManyToOneTrafficNoLoss).
    std::jthread t1(sender), t2(sender);
    int received = 0;
    while (received < 2 * kPerThread) {
      auto message = PollUntilOk([&] { return rx->Receive(); });
      ASSERT_TRUE(message.ok());
      ASSERT_TRUE(rx->PostBuffer(*message).ok());
      ++received;
    }
  }
  EXPECT_EQ(sent.load(), 2 * kPerThread);
  EXPECT_EQ(rx->DropCount(), 0u);
}

// Two threads share one send endpoint through the locked Send/Reclaim. The
// endpoint's telemetry cells are single-writer, so their increments must
// run under the endpoint lock too: bumped after the lock is dropped, two
// senders lose counts, and every identity built on them breaks (E11's call
// counts among them).
TEST(Cluster, SharedEndpointTelemetryCountsEveryLockedCall) {
  constexpr int kPerThread = 50000;
  constexpr int kBuffersPerThread = 8;
  auto cluster = MakeCluster();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  // No buffers are posted: the destination engine drops every message,
  // which leaves the send side (the subject here) free-running.
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive});
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 32});
  ASSERT_TRUE(rx.ok() && tx.ok());

  std::atomic<std::uint64_t> sends{0};
  std::atomic<std::uint64_t> reclaims{0};
  // A time budget too, so a loaded host checks the identities on fewer
  // calls instead of stalling the suite.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto sender = [&] {
    std::vector<MessageBuffer> free;
    for (int i = 0; i < kBuffersPerThread; ++i) {
      auto buffer = a.AllocateBuffer();
      ASSERT_TRUE(buffer.ok());
      free.push_back(*buffer);
    }
    int sent = 0;
    test_util::PollBackoff backoff;
    while (sent < kPerThread && std::chrono::steady_clock::now() < deadline) {
      // Bursts: both threads release back to back, so their increments of
      // the same telemetry cells overlap.
      while (!free.empty() && sent < kPerThread && tx->Send(free.back(), rx->address()).ok()) {
        free.pop_back();
        ++sent;
        sends.fetch_add(1, std::memory_order_relaxed);
      }
      for (auto reclaimed = tx->Reclaim(); reclaimed.ok(); reclaimed = tx->Reclaim()) {
        free.push_back(*reclaimed);
        reclaims.fetch_add(1, std::memory_order_relaxed);
      }
      // Every buffer in flight: back off (spin, then sleep) so a loaded
      // host still runs the engine that completes them.
      if (free.empty()) {
        backoff.Idle();
      } else {
        backoff.Reset();
      }
    }
  };
  {
    std::jthread t1(sender), t2(sender);
  }
  // Let the engine finish what was released, then reclaim the rest.
  const shm::EndpointRecord& record = a.comm().endpoint(tx->index());
  while (record.processed_total.Read() < sends.load() &&
         std::chrono::steady_clock::now() < deadline + std::chrono::seconds(10)) {
    std::this_thread::yield();
  }
  while (tx->Reclaim().ok()) {
    reclaims.fetch_add(1, std::memory_order_relaxed);
  }

  const shm::TelemetryBlock& telemetry = a.comm().telemetry(tx->index());
  EXPECT_GT(sends.load(), 0u);
  EXPECT_EQ(record.processed_total.Read(), sends.load());
  EXPECT_EQ(telemetry.api_sends.Read(), sends.load());
  EXPECT_EQ(telemetry.doorbell_rings.Read(), sends.load());
  EXPECT_EQ(telemetry.api_reclaims.Read(), reclaims.load());
  EXPECT_EQ(reclaims.load(), sends.load());
  EXPECT_EQ(a.calls().sends, sends.load());
}

// The idle-park budget is pure arithmetic; pin its edge cases directly.
TEST(EngineRunner, IdleParkCapsAtUnthrottleDeadline) {
  using engine::EngineRunner;
  constexpr DurationNs kMax = 200'000;
  // No throttled work pending: sleep the configured maximum.
  EXPECT_EQ(EngineRunner::IdleParkNs(1'000, kTimeNever, kMax), kMax);
  // Gate already lapsed: do not sleep at all.
  EXPECT_EQ(EngineRunner::IdleParkNs(5'000, 4'000, kMax), 0);
  EXPECT_EQ(EngineRunner::IdleParkNs(5'000, 5'000, kMax), 0);
  // Pending gate: sleep exactly the remaining wait, never more.
  EXPECT_EQ(EngineRunner::IdleParkNs(5'000, 55'000, kMax), 50'000);
  EXPECT_EQ(EngineRunner::IdleParkNs(0, 10'000'000, kMax), kMax);
}

// Satellite regression (the fixed-200us idle-park bug): a message already
// queued behind a rate gate generates no kick when the gate lapses — only
// the park timeout rediscovers it, so the park must be capped at the
// engine's earliest unthrottle instant. The maximum park is set absurdly
// long here so the stale behavior (sleeping the full maximum, ignoring
// NextUnthrottleTime) shows up as a half-second stall, far outside the
// asserted bound, while the capped wait delivers within a few ms.
TEST(Cluster, IdleParkWakesAtUnthrottleDeadline) {
  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 128;
  options.comm.buffer_count = 64;
  options.comm.max_endpoints = 16;
  options.max_idle_park_ns = 500'000'000;
  auto cluster_or = Cluster::Create(options);
  ASSERT_TRUE(cluster_or.ok());
  auto cluster = std::move(cluster_or).value();
  cluster->Start();

  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 8});
  ASSERT_TRUE(rx.ok());
  for (int i = 0; i < 2; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }
  Domain::EndpointOptions tx_options;
  tx_options.type = shm::EndpointType::kSend;
  tx_options.queue_depth = 8;
  tx_options.bucket_capacity = 1;  // second send due at +2 ms
  tx_options.bucket_refill_ns = 2'000'000;
  auto tx = a.CreateEndpoint(tx_options);
  ASSERT_TRUE(tx.ok());

  const TimeNs start = RealClock::Instance().NowNs();
  auto m1 = a.AllocateBuffer();
  auto m2 = a.AllocateBuffer();
  ASSERT_TRUE(m1.ok() && m2.ok());
  ASSERT_TRUE(tx->Send(*m1, rx->address()).ok());
  ASSERT_TRUE(tx->Send(*m2, rx->address()).ok());

  ASSERT_TRUE(PollUntilOk([&] { return rx->Receive(); }).ok());
  ASSERT_TRUE(PollUntilOk([&] { return rx->Receive(); }).ok());
  const TimeNs elapsed = RealClock::Instance().NowNs() - start;
  // Due at +2 ms; 100 ms absorbs scheduler noise while staying far under
  // the 500 ms an uncapped park would sleep.
  EXPECT_LT(elapsed, 100'000'000);
  cluster->Stop();
}

// Lost-wake regression for the park/wake handshake (ParkWakeFlag). Every
// fourth round waits until BOTH runners are parked, then sends one
// message, which must wake node 0's runner (the application's kick) and
// then node 1's (the fabric delivery). The other rounds send after a delay
// that sweeps 0–100 µs, so sends also land while a runner spins, announces
// its park or re-checks for work — the window a missing re-check loses. The
// park timeout is 10 s, so a lost wake cannot hide behind it: the round
// misses its receive deadline instead. A runner is parked while its
// idle_parks() runs one ahead of its kicks(), since kicks() counts exactly
// the parks that ended in a wake.
//
// 10 000 rounds take well under a second on an idle host. Beside a busy
// loop on every core each park first spends its spin budget yielding to
// the busy loop, so the rounds stop at a 20 s budget instead (at least 50
// run either way).
TEST(Cluster, ParkThenSendNeverLosesAWake) {
  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 64;
  options.comm.buffer_count = 16;
  options.comm.max_endpoints = 4;
  options.max_idle_park_ns = 10'000'000'000;
  auto cluster_or = Cluster::Create(options);
  ASSERT_TRUE(cluster_or.ok());
  auto cluster = std::move(cluster_or).value();
  cluster->Start();

  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 4});
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 4});
  ASSERT_TRUE(rx.ok() && tx.ok());
  auto posted = b.AllocateBuffer();
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(posted.ok() && msg.ok());
  ASSERT_TRUE(rx->PostBufferUnlocked(*posted).ok());

  const auto parked = [&](NodeId n) {
    const std::uint64_t parks = cluster->runner(n).idle_parks();
    return parks == cluster->runner(n).kicks() + 1;
  };
  const auto within = [](TimeNs deadline) { return RealClock::Instance().NowNs() < deadline; };
  constexpr int kRounds = 10'000;
  constexpr int kMinRounds = 50;
  constexpr TimeNs kBudgetNs = 20'000'000'000;
  constexpr TimeNs kRoundDeadlineNs = 5'000'000'000;  // half the park timeout
  const TimeNs budget_end = RealClock::Instance().NowNs() + kBudgetNs;
  int rounds = 0;
  int parked_rounds = 0;
  for (; rounds < kRounds && (rounds < kMinRounds || within(budget_end)); ++rounds) {
    const int round = rounds;
    TimeNs deadline = RealClock::Instance().NowNs() + kRoundDeadlineNs;
    if (round % 4 == 0) {
      while (!(parked(0) && parked(1)) && within(deadline)) {
        std::this_thread::yield();
      }
      ASSERT_TRUE(parked(0) && parked(1)) << "runners never parked, round " << round;
      ++parked_rounds;
    } else {
      const TimeNs delay = static_cast<TimeNs>((static_cast<std::uint64_t>(round) * 2654435761u) %
                                               100'000);
      const TimeNs send_at = RealClock::Instance().NowNs() + delay;
      while (within(send_at)) {
      }
    }

    *msg->As<std::uint32_t>() = static_cast<std::uint32_t>(round);
    ASSERT_TRUE(tx->SendUnlocked(*msg, rx->address()).ok());
    deadline = RealClock::Instance().NowNs() + kRoundDeadlineNs;
    Result<MessageBuffer> got = rx->ReceiveUnlocked();
    while (!got.ok() && within(deadline)) {
      std::this_thread::yield();
      got = rx->ReceiveUnlocked();
    }
    ASSERT_TRUE(got.ok()) << "lost wake: round " << round << " never arrived";
    EXPECT_EQ(*got->As<std::uint32_t>(), static_cast<std::uint32_t>(round));
    ASSERT_TRUE(rx->PostBufferUnlocked(*got).ok());
    auto back = PollUntilOk([&] { return tx->ReclaimUnlocked(); });
    ASSERT_TRUE(back.ok());
    msg = back;
  }
  cluster->Stop();
  RecordProperty("rounds", rounds);
  // Each parked round woke each runner out of a park.
  EXPECT_GE(cluster->runner(0).kicks(), static_cast<std::uint64_t>(parked_rounds));
  EXPECT_GE(cluster->runner(1).kicks(), static_cast<std::uint64_t>(parked_rounds));
  EXPECT_EQ(rx->DropCount(), 0u);
}

}  // namespace
}  // namespace flipc
