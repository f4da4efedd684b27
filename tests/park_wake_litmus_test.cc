// Store-buffering litmus test for the park/wake handshake (ParkWakeFlag,
// src/base/locks.h), on real threads.
//
// Each round a parker and a waker run the two halves of the handshake at
// the same moment, exactly as EngineRunner::Park and EngineWaker::Wake do:
//
//   parker: AnnouncePark(); re-check: acquire-load the work word
//   waker:  release-store the work word; WakeNeeded()
//
// Each side stores one word and then loads the other's: the
// store-buffering shape, where a CPU may satisfy the load before its own
// store is visible. If both loads missed, the runner would sleep with the
// round's work pending and the waker would not wake it: a lost wake. The
// parker's process-wide barrier (membarrier) must make that outcome
// impossible although the waker executes no fence. With the barrier
// replaced by a compiler barrier, x86 shows the outcome in a fraction of
// a percent of rounds, so the round count gives the test its teeth.
//
// model_check_test.cc enumerates the interleavings of the same handshake
// on one thread; this test exercises the hardware's memory ordering.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include <gtest/gtest.h>

#include "src/base/locks.h"
#include "tests/poll_backoff.h"

namespace flipc {
namespace {

// One shared word per cache line, as the runner's flag and the work it
// guards live in different objects.
struct alignas(64) Word {
  std::atomic<std::uint64_t> value{0};
};

// 100 000 rounds take about a second on an idle 4-vCPU host. Beside a busy
// loop on every core each round waits for three threads to be scheduled,
// so the rounds stop at a 20 s budget instead (at least 2 000 run).
TEST(ParkWakeLitmus, ParkerOrWakerAlwaysSeesTheOther) {
  constexpr std::uint64_t kRounds = 100'000;
  constexpr std::uint64_t kMinRounds = 2'000;
  constexpr auto kBudget = std::chrono::seconds(20);

  ParkWakeFlag flag;
  Word round;    // main -> both: the round to run
  Word stop;     // main -> both: no further round
  Word work;     // waker -> parker: the round whose work is published
  Word halves;   // both -> parker: halves finished, two per round
  Word cleared;  // parker -> main: the last round whose park was cleared
  // Each written by one side before its `halves` increment.
  bool parker_saw_work = false;
  bool waker_saw_park = false;

  const auto wait_for_round = [&](std::uint64_t r) {
    test_util::PollBackoff backoff;
    while (round.value.load(std::memory_order_acquire) < r) {
      if (stop.value.load(std::memory_order_acquire) != 0) {
        return false;
      }
      backoff.Idle();
    }
    return true;
  };

  // A runner whose re-check missed the work sleeps with the park still
  // announced, so the parker clears it only once the waker's half is done.
  std::thread parker([&] {
    for (std::uint64_t r = 1; wait_for_round(r); ++r) {
      flag.AnnouncePark();
      parker_saw_work = work.value.load(std::memory_order_acquire) == r;
      halves.value.fetch_add(1, std::memory_order_release);
      test_util::PollBackoff backoff;
      while (halves.value.load(std::memory_order_acquire) < 2 * r) {
        backoff.Idle();
      }
      flag.ClearPark();
      cleared.value.store(r, std::memory_order_release);
    }
  });
  std::thread waker([&] {
    for (std::uint64_t r = 1; wait_for_round(r); ++r) {
      work.value.store(r, std::memory_order_release);
      waker_saw_park = flag.WakeNeeded();
      halves.value.fetch_add(1, std::memory_order_release);
    }
  });

  std::uint64_t both_missed = 0;
  std::uint64_t both_saw = 0;  // the halves overlapped: the race was real
  std::uint64_t rounds = 0;
  const auto budget_end = std::chrono::steady_clock::now() + kBudget;
  while (rounds < kRounds &&
         (rounds < kMinRounds || std::chrono::steady_clock::now() < budget_end)) {
    ++rounds;
    round.value.store(rounds, std::memory_order_release);
    test_util::PollBackoff backoff;
    while (cleared.value.load(std::memory_order_acquire) < rounds) {
      backoff.Idle();
    }
    both_missed += !parker_saw_work && !waker_saw_park ? 1 : 0;
    both_saw += parker_saw_work && waker_saw_park ? 1 : 0;
  }
  stop.value.store(1, std::memory_order_release);
  parker.join();
  waker.join();

  RecordProperty("rounds", static_cast<int>(rounds));
  RecordProperty("both_saw", static_cast<int>(both_saw));
  EXPECT_EQ(both_missed, 0u) << "lost wakes in " << both_missed << " of " << rounds
                             << " rounds";
}

}  // namespace
}  // namespace flipc
