// Two-thread sanitizer stress for the wait-free boundary structures, plus
// death tests for the ownership race detector.
//
// The model checker (model_check_test.cc) enumerates schedules on one
// thread; these tests run a REAL application thread against a REAL engine
// thread so ThreadSanitizer sees the actual happens-before graph:
//
//   cmake -B build-tsan -DFLIPC_SANITIZE=thread && ctest -R sanitizer_stress
//
// must run clean — every cross-thread handoff in BufferQueueView and
// DropCounter is an acquire/release pair on a single-writer cell, and TSan
// will flag any ordering we got wrong.
//
// What TSan can NOT see is a single-writer violation: both sides use atomic
// stores, so a both-sides-write bug is invisible to it. That is the
// ownership race detector's job (FLIPC_CHECK_SINGLE_WRITER builds); the
// death tests below prove it fires, with a diagnostic naming the cell, the
// declared owner, and the offending role.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/waitfree/boundary_check.h"
#include "src/waitfree/buffer_queue.h"
#include "src/waitfree/doorbell_ring.h"
#include "src/waitfree/drop_counter.h"
#include "src/waitfree/msg_state.h"
#include "tests/poll_backoff.h"

namespace flipc::waitfree {
namespace {

// ---- Real-thread stress ----------------------------------------------------

// An out-of-order value seen on one side of a two-thread test. A failed
// ASSERT inside a std::thread ends only that thread and leaves the other
// one waiting for it forever, so each side records its first mismatch
// here, raises the shared stop flag and returns; the test asserts on the
// main thread after the join.
struct Mismatch {
  bool seen = false;
  std::uint64_t expected = 0;
  std::uint64_t got = 0;

  void Record(std::uint64_t want, std::uint64_t value, std::atomic<bool>& stop) {
    seen = true;
    expected = want;
    got = value;
    stop.store(true, std::memory_order_release);
  }
};

::testing::AssertionResult InOrder(const Mismatch& m, const char* side) {
  if (!m.seen) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << side << " saw " << m.got << " where " << m.expected << " was due";
}

// The ownership checker takes a registry lock per store; keep the armed
// configuration's iteration counts small enough to finish promptly while
// the plain and sanitizer builds get the full hammering.
#ifdef FLIPC_CHECK_SINGLE_WRITER
constexpr std::uint32_t kQueueMessages = 5000;
constexpr std::uint64_t kDropEvents = 20000;
#else
constexpr std::uint32_t kQueueMessages = 200000;
constexpr std::uint64_t kDropEvents = 500000;
#endif

TEST(SanitizerStress, QueueAppVsEngineThreads) {
  constexpr std::uint32_t kCapacity = 8;
  constexpr std::uint32_t kMessages = kQueueMessages;
  InlineBufferQueue<kCapacity> queue;
  std::atomic<bool> stop{false};
  Mismatch engine_mismatch;
  Mismatch app_mismatch;

  // Engine thread: peek + advance every released buffer, checking FIFO.
  std::thread engine([&] {
    BoundaryRole::BindCurrentThread(Writer::kEngine);
    test_util::PollBackoff backoff;
    std::uint32_t processed = 0;
    while (processed < kMessages && !stop.load(std::memory_order_acquire)) {
      const BufferIndex value = queue.view().PeekProcess();
      if (value == kInvalidBuffer) {
        backoff.Idle();
        continue;
      }
      backoff.Reset();
      if (value != processed) {
        engine_mismatch.Record(processed, value, stop);
        break;
      }
      queue.view().AdvanceProcess();
      ++processed;
    }
    BoundaryRole::UnbindCurrentThread();
  });

  // Application thread (this one): release sequential values, acquire them
  // back in order.
  BoundaryRole::BindCurrentThread(Writer::kApplication);
  std::uint32_t released = 0;
  std::uint32_t acquired = 0;
  while (acquired < kMessages && !stop.load(std::memory_order_acquire)) {
    if (released < kMessages && queue.view().Release(released)) {
      ++released;
    }
    const BufferIndex value = queue.view().Acquire();
    if (value != kInvalidBuffer) {
      if (value != acquired) {
        app_mismatch.Record(acquired, value, stop);
        break;
      }
      ++acquired;
    }
  }
  BoundaryRole::UnbindCurrentThread();
  engine.join();

  ASSERT_TRUE(InOrder(engine_mismatch, "engine (processing releases)"));
  ASSERT_TRUE(InOrder(app_mismatch, "application (acquiring)"));
  EXPECT_EQ(queue.view().Size(), 0u);
  EXPECT_EQ(queue.view().release_count(), kMessages);
  EXPECT_EQ(queue.view().process_count(), kMessages);
  EXPECT_EQ(queue.view().acquire_count(), kMessages);
}

TEST(SanitizerStress, DropCounterAppVsEngineThreads) {
  constexpr std::uint64_t kDrops = kDropEvents;
  DropCounter counter;

  std::thread engine([&counter] {
    BoundaryRole::BindCurrentThread(Writer::kEngine);
    for (std::uint64_t i = 0; i < kDrops; ++i) {
      counter.RecordDrop();
    }
    BoundaryRole::UnbindCurrentThread();
  });

  // Application thread: reset storm racing the drops. The invariant from
  // the paper: no drop is ever lost or double-counted.
  BoundaryRole::BindCurrentThread(Writer::kApplication);
  std::uint64_t reclaimed = 0;
  while (counter.LifetimeCount() < kDrops) {
    reclaimed += counter.ReadAndReset();
  }
  engine.join();
  reclaimed += counter.ReadAndReset();
  BoundaryRole::UnbindCurrentThread();

  EXPECT_EQ(reclaimed, kDrops);
  EXPECT_EQ(counter.Count(), 0u);
}

TEST(SanitizerStress, DoorbellRingAppVsEngineThreads) {
  constexpr std::uint32_t kCapacity = 16;
  constexpr std::uint32_t kDoorbells = kQueueMessages;
  InlineDoorbellRing<kCapacity> ring;
  std::atomic<bool> stop{false};
  Mismatch engine_mismatch;

  // Engine thread: pop every successfully-rung doorbell, checking FIFO (the
  // ring is exact, so no doorbell may be lost, duplicated, or reordered).
  // Overflow refusals are acknowledged the way the engine's sweep does; the
  // refused doorbell itself was never published, the application below
  // retries it.
  std::thread engine([&] {
    BoundaryRole::BindCurrentThread(Writer::kEngine);
    test_util::PollBackoff backoff;
    std::uint32_t next = 0;
    while (next < kDoorbells) {
      if (ring.view().OverflowPending()) {
        ring.view().AckOverflow();
      }
      const std::uint32_t value = ring.view().Pop();
      if (value == kInvalidDoorbell) {
        backoff.Idle();
        continue;
      }
      backoff.Reset();
      if (value != next) {
        engine_mismatch.Record(next, value, stop);
        break;
      }
      ++next;
    }
    BoundaryRole::UnbindCurrentThread();
  });

  // Application thread (this one): ring sequential values; a refusal (full
  // ring) is retried, which also exercises the overflow signal under load.
  // An engine-side failure stops the retries.
  BoundaryRole::BindCurrentThread(Writer::kApplication);
  test_util::PollBackoff backoff;
  for (std::uint32_t i = 0; i < kDoorbells && !stop.load(std::memory_order_acquire); ++i) {
    while (!ring.view().Ring(i) && !stop.load(std::memory_order_acquire)) {
      backoff.Idle();
    }
    backoff.Reset();
  }
  BoundaryRole::UnbindCurrentThread();
  engine.join();

  ASSERT_TRUE(InOrder(engine_mismatch, "engine (popping doorbells)"));
  EXPECT_EQ(ring.view().PendingCount(), 0u);
  EXPECT_FALSE(ring.view().HasPending());
}

// Several application threads ring one ring while the engine pops: the
// ring stays exact under real claim races. Every successful Ring() is
// popped exactly once, and each producer's doorbells pop in its own ring
// order (claim order restricted to one producer).
TEST(SanitizerStress, DoorbellRingProducersVsEngineThread) {
  constexpr std::uint32_t kCapacity = 8;
  constexpr std::uint32_t kProducers = 3;
  constexpr std::uint32_t kPerProducer = kQueueMessages / 10;
  InlineDoorbellRing<kCapacity> ring;
  std::atomic<bool> stop{false};
  Mismatch engine_mismatch;

  std::thread engine([&] {
    BoundaryRole::BindCurrentThread(Writer::kEngine);
    test_util::PollBackoff backoff;
    std::uint32_t next[kProducers] = {};
    std::uint32_t popped = 0;
    while (popped < kProducers * kPerProducer && !stop.load(std::memory_order_acquire)) {
      if (ring.view().OverflowPending()) {
        ring.view().AckOverflow();
      }
      const std::uint32_t value = ring.view().Pop();
      if (value == kInvalidDoorbell) {
        backoff.Idle();
        continue;
      }
      backoff.Reset();
      const std::uint32_t producer = value / kPerProducer;
      const std::uint32_t want = producer < kProducers ? producer * kPerProducer + next[producer]
                                                       : 0;
      if (producer >= kProducers || value != want) {
        engine_mismatch.Record(want, value, stop);
        break;
      }
      ++next[producer];
      ++popped;
    }
    BoundaryRole::UnbindCurrentThread();
  });

  // Producer p rings p * kPerProducer + i in order, retrying refusals.
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      BoundaryRole::BindCurrentThread(Writer::kApplication);
      test_util::PollBackoff backoff;
      for (std::uint32_t i = 0; i < kPerProducer && !stop.load(std::memory_order_acquire); ++i) {
        while (!ring.view().Ring(p * kPerProducer + i) &&
               !stop.load(std::memory_order_acquire)) {
          backoff.Idle();
        }
        backoff.Reset();
      }
      BoundaryRole::UnbindCurrentThread();
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  engine.join();

  ASSERT_TRUE(InOrder(engine_mismatch, "engine (popping doorbells)"));
  EXPECT_EQ(ring.view().PendingCount(), 0u);
  EXPECT_FALSE(ring.view().HasPending());
}

// ---- Ownership checker death tests (checking builds only) ------------------

#ifdef FLIPC_CHECK_SINGLE_WRITER

TEST(OwnershipCheckerDeath, ApplicationRoleWritingEngineCursorAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The diagnostic must name the cell and BOTH roles: the declared owner
  // (engine) and the offending writer (application).
  EXPECT_DEATH(
      {
        InlineBufferQueue<4> queue;
        {
          ScopedBoundaryRole app(Writer::kApplication);
          queue.view().Release(7);  // Legitimate: release is app-owned.
          // Cross-boundary write: process_count is the ENGINE's cursor.
          queue.view().AdvanceProcess();
        }
      },
      "process_count.*owned by the engine.*written by a thread bound to the "
      "application role");
}

TEST(OwnershipCheckerDeath, EngineRoleWritingApplicationCellAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        InlineBufferQueue<4> queue;
        ScopedBoundaryRole engine(Writer::kEngine);
        // Release writes a queue cell and the release cursor — both
        // application-owned.
        queue.view().Release(7);
      },
      "owned by the application.*written by a thread bound to the engine role");
}

TEST(OwnershipCheckerDeath, EngineRoleResettingDropCounterAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DropCounter counter;
        ScopedBoundaryRole engine(Writer::kEngine);
        counter.RecordDrop();    // Legitimate: dropped is engine-owned.
        counter.ReadAndReset();  // Violation: reclaimed is app-owned.
      },
      "DropCounter.reclaimed.*owned by the application.*engine role");
}

TEST(OwnershipCheckerDeath, EngineRoleRingingDoorbellAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        InlineDoorbellRing<4> ring;
        ScopedBoundaryRole engine(Writer::kEngine);
        // Ring cells are written at ring time, by the application only; the
        // engine consumes. An engine-role Ring() is a boundary violation.
        ring.view().Ring(5);
      },
      "InlineDoorbellRing.cells.*owned by the application.*written by a thread "
      "bound to the engine role");
}

TEST(OwnershipCheckerDeath, ApplicationRoleAdvancingRingHeadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        InlineDoorbellRing<4> ring;
        {
          ScopedBoundaryRole app(Writer::kApplication);
          ring.view().Ring(1);  // Legitimate: ringing is app-owned.
          // Cross-boundary write: ring_head is the ENGINE's cursor.
          ring.view().Pop();
        }
      },
      "DoorbellCursors.ring_head.*owned by the engine.*written by a thread "
      "bound to the application role");
}

TEST(OwnershipCheckerDeath, AdvanceProcessWithoutPeekedBufferAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Engine-side protocol misuse: advancing past the release cursor would
  // expose an unwritten cell to Acquire(). Caught in checking mode even
  // though the role is correct.
  EXPECT_DEATH(
      {
        InlineBufferQueue<4> queue;
        ScopedBoundaryRole engine(Writer::kEngine);
        queue.view().AdvanceProcess();
      },
      "AdvanceProcess\\(\\) without a released buffer");
}

TEST(OwnershipCheckerDeath, HandoffWrongDirectionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        HandoffState state;
        ScopedBoundaryRole app(Writer::kApplication);
        // Only the engine may mark a buffer completed.
        state.Store(MsgState::kCompleted);
      },
      "may only be stored by the engine");
}

TEST(OwnershipChecker, UnboundThreadsAndExemptionsAreUnchecked) {
  // Tools, tests and quiescent allocation paths run unbound (or exempted)
  // and may touch both sides.
  InlineBufferQueue<4> queue;
  queue.view().Release(1);
  ASSERT_NE(queue.view().PeekProcess(), kInvalidBuffer);
  queue.view().AdvanceProcess();  // Unbound: no role, no abort.
  {
    ScopedBoundaryRole app(Writer::kApplication);
    ScopedBoundaryExemption quiescent;
    queue.view().Release(2);
    ASSERT_NE(queue.view().PeekProcess(), kInvalidBuffer);
    queue.view().AdvanceProcess();  // Exempted: no abort despite app role.
  }
  EXPECT_EQ(queue.view().AcquirableCount(), 2u);
}

#else  // !FLIPC_CHECK_SINGLE_WRITER

TEST(OwnershipCheckerDeath, RequiresCheckingBuild) {
  GTEST_SKIP() << "ownership checker death tests need -DFLIPC_CHECK_SINGLE_WRITER=ON";
}

#endif  // FLIPC_CHECK_SINGLE_WRITER

}  // namespace
}  // namespace flipc::waitfree
