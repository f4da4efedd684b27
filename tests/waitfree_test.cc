// Tests for the paper's wait-free structures: the dual-location drop
// counter, the three-cursor endpoint buffer queue (Figure 3), and the
// real-thread wire's SPSC frame ring. Includes
// real-concurrency stress tests that pit an "application" thread against an
// "engine" thread, and parameterized property sweeps over queue capacities
// and randomized interleavings.
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/waitfree/buffer_queue.h"
#include "src/waitfree/doorbell_ring.h"
#include "src/waitfree/drop_counter.h"
#include "src/waitfree/msg_state.h"
#include "src/waitfree/single_writer.h"
#include "src/waitfree/spsc_ring.h"
#include "tests/poll_backoff.h"

namespace flipc::waitfree {
namespace {

// ------------------------------ SingleWriterCell ---------------------------

TEST(SingleWriterCell, PublishRead) {
  SingleWriterCell<std::uint32_t> cell(5);
  EXPECT_EQ(cell.Read(), 5u);
  cell.Publish(9);
  EXPECT_EQ(cell.Read(), 9u);
  EXPECT_EQ(cell.ReadRelaxed(), 9u);
}

TEST(SingleWriterCell, CrossThreadVisibility) {
  SingleWriterCell<std::uint64_t> cell;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 100000; ++i) {
      cell.Publish(i);
    }
    stop.store(true, std::memory_order_release);
  });
  std::uint64_t last = 0;
  while (!stop.load(std::memory_order_acquire)) {
    const std::uint64_t v = cell.Read();
    EXPECT_GE(v, last);  // single writer increments monotonically
    last = v;
    std::this_thread::yield();
  }
  writer.join();
  EXPECT_EQ(cell.Read(), 100000u);
}

// -------------------------------- DropCounter -------------------------------

TEST(DropCounter, CountsAndResets) {
  DropCounter counter;
  EXPECT_EQ(counter.Count(), 0u);
  counter.RecordDrop();
  counter.RecordDrop();
  EXPECT_EQ(counter.Count(), 2u);
  EXPECT_EQ(counter.ReadAndReset(), 2u);
  EXPECT_EQ(counter.Count(), 0u);
  counter.RecordDrop();
  EXPECT_EQ(counter.Count(), 1u);
  EXPECT_EQ(counter.LifetimeCount(), 3u);
}

// The paper's motivating property: a drop racing with read-and-reset is
// never lost. With a single memory location it would be; with the dual
// location scheme the totals must always balance.
TEST(DropCounter, NoDropLostUnderConcurrentResets) {
  DropCounter counter;
  constexpr std::uint64_t kDrops = 200000;
  std::atomic<bool> engine_done{false};
  std::uint64_t reclaimed_total = 0;

  std::thread engine([&] {
    for (std::uint64_t i = 0; i < kDrops; ++i) {
      counter.RecordDrop();
    }
    engine_done.store(true, std::memory_order_release);
  });

  while (!engine_done.load(std::memory_order_acquire)) {
    reclaimed_total += counter.ReadAndReset();
    std::this_thread::yield();
  }
  engine.join();
  reclaimed_total += counter.ReadAndReset();

  EXPECT_EQ(reclaimed_total, kDrops);
  EXPECT_EQ(counter.Count(), 0u);
  EXPECT_EQ(counter.LifetimeCount(), kDrops);
}

// Randomized interleaving property: any sequence of drops and resets keeps
// (sum of reset results) + Count() == total drops.
TEST(DropCounter, InterleavingInvariant) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    DropCounter counter;
    std::uint64_t drops = 0;
    std::uint64_t reclaimed = 0;
    for (int op = 0; op < 200; ++op) {
      if (rng.Chance(0.7)) {
        counter.RecordDrop();
        ++drops;
      } else {
        reclaimed += counter.ReadAndReset();
      }
      ASSERT_EQ(reclaimed + counter.Count(), drops);
    }
  }
}

TEST(PaddedDropCounterParts, SeparatesWriterLines) {
  PaddedDropCounterParts counter;
  const auto dropped_addr = reinterpret_cast<std::uintptr_t>(&counter.dropped);
  const auto reclaimed_addr = reinterpret_cast<std::uintptr_t>(&counter.reclaimed);
  EXPECT_GE(reclaimed_addr - dropped_addr, kCacheLineSize);
  counter.RecordDrop();
  EXPECT_EQ(counter.ReadAndReset(), 1u);
}

// -------------------------------- BufferQueue --------------------------------

TEST(BufferQueue, StartsEmptyWithPaperConditions) {
  InlineBufferQueue<8> queue;
  BufferQueueView& view = queue.view();
  // "The queue is empty when all three pointers point to the same location."
  EXPECT_TRUE(view.Empty());
  EXPECT_EQ(view.ProcessableCount(), 0u);
  EXPECT_EQ(view.AcquirableCount(), 0u);
  EXPECT_EQ(view.Acquire(), kInvalidBuffer);
  EXPECT_EQ(view.PeekProcess(), kInvalidBuffer);
}

TEST(BufferQueue, ReleaseProcessAcquireCycle) {
  InlineBufferQueue<8> queue;
  BufferQueueView& view = queue.view();

  ASSERT_TRUE(view.Release(42));
  // Half-empty condition 1: released but unprocessed.
  EXPECT_EQ(view.ProcessableCount(), 1u);
  EXPECT_EQ(view.AcquirableCount(), 0u);
  EXPECT_EQ(view.Acquire(), kInvalidBuffer);  // nothing processed yet

  EXPECT_EQ(view.PeekProcess(), 42u);
  view.AdvanceProcess();
  // Half-empty condition 2: processed but unacquired.
  EXPECT_EQ(view.ProcessableCount(), 0u);
  EXPECT_EQ(view.AcquirableCount(), 1u);
  EXPECT_EQ(view.PeekProcess(), kInvalidBuffer);

  EXPECT_EQ(view.Acquire(), 42u);
  EXPECT_TRUE(view.Empty());
}

TEST(BufferQueue, FullRejectsRelease) {
  InlineBufferQueue<4> queue;
  BufferQueueView& view = queue.view();
  for (BufferIndex i = 0; i < 4; ++i) {
    ASSERT_TRUE(view.Release(i));
  }
  EXPECT_TRUE(view.Full());
  EXPECT_FALSE(view.Release(99));

  // Processing alone does not free slots — only acquisition does (the
  // buffer still belongs to the endpoint until the app takes it back).
  view.AdvanceProcess();
  EXPECT_FALSE(view.Release(99));
  EXPECT_EQ(view.Acquire(), 0u);
  EXPECT_TRUE(view.Release(99));
}

TEST(BufferQueue, FifoOrderPreserved) {
  InlineBufferQueue<16> queue;
  BufferQueueView& view = queue.view();
  for (BufferIndex i = 0; i < 10; ++i) {
    ASSERT_TRUE(view.Release(i * 7));
  }
  for (BufferIndex i = 0; i < 10; ++i) {
    ASSERT_EQ(view.PeekProcess(), i * 7);
    view.AdvanceProcess();
    EXPECT_EQ(view.Acquire(), i * 7);
  }
}

TEST(BufferQueue, CounterWraparound) {
  // Free-running 32-bit cursors must survive wrap. Start near the wrap
  // point by cycling a small queue many times... simulated by direct churn.
  InlineBufferQueue<2> queue;
  BufferQueueView& view = queue.view();
  for (std::uint32_t i = 0; i < 100000; ++i) {
    ASSERT_TRUE(view.Release(i));
    ASSERT_EQ(view.PeekProcess(), i);
    view.AdvanceProcess();
    ASSERT_EQ(view.Acquire(), i);
  }
  EXPECT_TRUE(view.Empty());
}

// Property sweep over capacities: random mixed operations maintain the
// queue invariants acquire <= process <= release <= acquire + capacity.
class BufferQueuePropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BufferQueuePropertyTest, RandomOpsKeepInvariants) {
  const std::uint32_t capacity = GetParam();
  std::vector<QueueCursors> cursors(1);
  std::vector<SingleWriterCell<BufferIndex>> cells(capacity);
  BufferQueueView view(&cursors[0], cells.data(), capacity);

  Rng rng(capacity * 1000003);
  std::uint32_t next_value = 0;
  std::uint32_t expect_process = 0;
  std::uint32_t expect_acquire = 0;

  for (int op = 0; op < 20000; ++op) {
    switch (rng.Below(3)) {
      case 0:
        if (view.Release(next_value)) {
          ++next_value;
        } else {
          ASSERT_EQ(view.Size(), capacity);
        }
        break;
      case 1: {
        const BufferIndex peeked = view.PeekProcess();
        if (peeked != kInvalidBuffer) {
          ASSERT_EQ(peeked, expect_process);
          view.AdvanceProcess();
          ++expect_process;
        }
        break;
      }
      case 2: {
        const BufferIndex acquired = view.Acquire();
        if (acquired != kInvalidBuffer) {
          ASSERT_EQ(acquired, expect_acquire);
          ++expect_acquire;
        }
        break;
      }
    }
    // Cursor ordering invariants.
    ASSERT_LE(expect_acquire, expect_process);
    ASSERT_LE(expect_process, next_value);
    ASSERT_LE(next_value - expect_acquire, capacity);
    ASSERT_EQ(view.Size(), next_value - expect_acquire);
    ASSERT_EQ(view.ProcessableCount(), next_value - expect_process);
    ASSERT_EQ(view.AcquirableCount(), expect_process - expect_acquire);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, BufferQueuePropertyTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 32u, 256u));

// Real-concurrency stress: one application thread (release + acquire) and
// one engine thread (peek + advance) hammer the queue; every value must
// round-trip exactly once, in order.
class BufferQueueStressTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BufferQueueStressTest, TwoThreadRoundTrip) {
  const std::uint32_t capacity = GetParam();
  std::vector<QueueCursors> cursors(1);
  std::vector<SingleWriterCell<BufferIndex>> cells(capacity);
  BufferQueueView view(&cursors[0], cells.data(), capacity);

  constexpr std::uint32_t kItems = 30000;
  std::atomic<bool> engine_stop{false};

  std::thread engine([&] {
    flipc::test_util::PollBackoff backoff;
    std::uint32_t processed = 0;
    while (processed < kItems) {
      if (view.PeekProcess() != kInvalidBuffer) {
        view.AdvanceProcess();
        ++processed;
        backoff.Reset();
      } else {
        backoff.Idle();
      }
      if (engine_stop.load(std::memory_order_relaxed)) {
        break;
      }
    }
  });

  flipc::test_util::PollBackoff backoff;
  std::uint32_t released = 0;
  std::uint32_t acquired = 0;
  while (acquired < kItems) {
    bool progress = false;
    if (released < kItems && view.Release(released)) {
      ++released;
      progress = true;
    }
    const BufferIndex value = view.Acquire();
    if (value != kInvalidBuffer) {
      ASSERT_EQ(value, acquired);  // strict FIFO round-trip
      ++acquired;
      progress = true;
    }
    if (progress) {
      backoff.Reset();
    } else {
      backoff.Idle();
    }
  }
  engine_stop.store(true, std::memory_order_relaxed);
  engine.join();
  EXPECT_TRUE(view.Empty());
}

INSTANTIATE_TEST_SUITE_P(Capacities, BufferQueueStressTest,
                         ::testing::Values(1u, 4u, 64u));

// -------------------------------- HandoffState ------------------------------

TEST(HandoffState, Transitions) {
  HandoffState state;
  EXPECT_EQ(state.Load(), MsgState::kFree);
  EXPECT_FALSE(state.IsCompleted());
  state.Store(MsgState::kReady);
  EXPECT_EQ(state.Load(), MsgState::kReady);
  state.Store(MsgState::kCompleted);
  EXPECT_TRUE(state.IsCompleted());
}

// Layout assertion from the paper's false-sharing fix.
TEST(QueueCursors, WriterLinesDoNotOverlap) {
  QueueCursors cursors;
  const auto app_line = reinterpret_cast<std::uintptr_t>(&cursors.release_count);
  const auto engine_line = reinterpret_cast<std::uintptr_t>(&cursors.process_count);
  EXPECT_GE(engine_line - app_line, kCacheLineSize);
}

// ------------------------------- DoorbellRing -------------------------------

// A capacity-8 doorbell ring whose cursors start at `start` - 8, with one
// full lap rung and popped, so every cell holds the tag a ring that had
// been running since position 0 would hold there.
struct WarmDoorbellRing {
  static constexpr std::uint32_t kCapacity = 8;

  explicit WarmDoorbellRing(std::uint32_t start) {
    cursors.ring_tail.store(start - kCapacity, std::memory_order_relaxed);
    cursors.ring_head.StoreRelaxed(start - kCapacity);
    for (std::uint32_t i = 0; i < kCapacity; ++i) {
      EXPECT_TRUE(view.Ring(100 + i));
    }
    for (std::uint32_t i = 0; i < kCapacity; ++i) {
      EXPECT_EQ(view.Pop(), 100 + i);
    }
  }

  DoorbellCursors cursors;
  SingleWriterCell<std::uint64_t> cells[kCapacity] = {};
  DoorbellRingView view{&cursors, cells, kCapacity};
};

// Positions and lap tags wrap together at 2^32: a stale cell from the last
// lap before the wrap must still read as stale (an empty Pop returns at
// once) and a fresh one as current, never as a future lap to skip.
TEST(DoorbellRing, RingPopAcrossPositionWrap) {
  WarmDoorbellRing ring(0u - 16);
  DoorbellRingView& view = ring.view;
  for (std::uint32_t i = 0; i < 4 * WarmDoorbellRing::kCapacity; ++i) {
    ASSERT_TRUE(view.Ring(i)) << "step " << i;
    ASSERT_TRUE(view.HasPending()) << "step " << i;
    ASSERT_EQ(view.Pop(), i) << "step " << i;
    ASSERT_FALSE(view.HasPending()) << "step " << i;
    ASSERT_EQ(view.Pop(), kInvalidDoorbell) << "step " << i;
  }
  EXPECT_EQ(ring.cursors.ring_head.Read(), 16u);
  EXPECT_FALSE(view.OverflowPending());
}

// A full ring whose positions straddle the wrap refuses the next ring (and
// raises the overflow signal), then drains in order and reads empty.
TEST(DoorbellRing, FullRingAcrossPositionWrap) {
  WarmDoorbellRing ring(0u - 4);
  DoorbellRingView& view = ring.view;
  for (std::uint32_t i = 0; i < WarmDoorbellRing::kCapacity; ++i) {
    ASSERT_TRUE(view.Ring(i));
  }
  EXPECT_EQ(view.PendingCount(), WarmDoorbellRing::kCapacity);
  EXPECT_FALSE(view.Ring(99));
  EXPECT_TRUE(view.OverflowPending());
  for (std::uint32_t i = 0; i < WarmDoorbellRing::kCapacity; ++i) {
    ASSERT_EQ(view.Pop(), i);
  }
  EXPECT_EQ(view.Pop(), kInvalidDoorbell);
  EXPECT_EQ(ring.cursors.ring_head.Read(), 4u);
  ASSERT_TRUE(view.Ring(7));
  EXPECT_EQ(view.Pop(), 7u);
  EXPECT_EQ(view.Pop(), kInvalidDoorbell);
}

// A claim whose producer has not published holds the head across the wrap:
// later doorbells wait behind it (HeadStalled), none is skipped or popped
// early, and all pop in claim order once it publishes. A full ring refuses
// the next claim rather than overwrite the stalled slot.
TEST(DoorbellRing, StalledClaimAcrossPositionWrap) {
  WarmDoorbellRing ring(0u - 1);
  DoorbellRingView& view = ring.view;
  std::uint32_t stalled = 0;
  ASSERT_TRUE(view.ClaimSlot(&stalled));
  EXPECT_EQ(stalled, 0u - 1);
  for (std::uint32_t i = 1; i < WarmDoorbellRing::kCapacity; ++i) {
    ASSERT_TRUE(view.Ring(i));
  }
  EXPECT_TRUE(view.HeadStalled());
  EXPECT_FALSE(view.HasPending());
  EXPECT_EQ(view.Pop(), kInvalidDoorbell);
  EXPECT_FALSE(view.Ring(99));
  EXPECT_TRUE(view.OverflowPending());
  view.PublishSlot(stalled, 0);
  EXPECT_FALSE(view.HeadStalled());
  for (std::uint32_t i = 0; i < WarmDoorbellRing::kCapacity; ++i) {
    ASSERT_EQ(view.Pop(), i);
  }
  EXPECT_EQ(view.Pop(), kInvalidDoorbell);
  EXPECT_FALSE(view.HeadStalled());
  EXPECT_EQ(ring.cursors.ring_head.Read(), WarmDoorbellRing::kCapacity - 1);
}

// ------------------------------- SpscFrameRing ------------------------------

// FIFO across many laps, with the ring refusing (not overwriting) a frame
// whenever it is full.
TEST(SpscFrameRing, FifoAcrossLapsRefusesWhenFull) {
  InlineSpscFrameRing<4, 16> ring;
  SpscFrameRingView& view = ring.view();
  EXPECT_EQ(view.Front(), nullptr);
  std::uint32_t next_in = 0;
  std::uint32_t next_out = 0;
  for (int round = 0; round < 12; ++round) {
    while (std::byte* frame = view.TryReserve()) {
      std::memcpy(frame, &next_in, sizeof(next_in));
      view.Commit();
      ++next_in;
    }
    ASSERT_EQ(next_in - next_out, view.capacity()) << "round " << round;
    EXPECT_EQ(view.PendingCount(), view.capacity());
    EXPECT_EQ(view.TryReserve(), nullptr);  // Still full: refused again.
    const int drain = 1 + round % 4;
    for (int i = 0; i < drain; ++i) {
      const std::byte* frame = view.Front();
      ASSERT_NE(frame, nullptr);
      std::uint32_t value = 0;
      std::memcpy(&value, frame, sizeof(value));
      EXPECT_EQ(value, next_out);
      view.Pop();
      ++next_out;
    }
  }
  while (const std::byte* frame = view.Front()) {
    std::uint32_t value = 0;
    std::memcpy(&value, frame, sizeof(value));
    EXPECT_EQ(value, next_out++);
    view.Pop();
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(view.PendingCount(), 0u);
}

// One producer engine and one consumer engine on their own threads: every
// frame arrives exactly once, in order, with its bytes intact.
TEST(SpscFrameRing, TwoThreadFifo) {
  InlineSpscFrameRing<8, 64> ring;
  SpscFrameRingView& view = ring.view();
  constexpr std::uint64_t kFrames = 100000;

  std::thread producer([&] {
    flipc::test_util::PollBackoff backoff;
    for (std::uint64_t i = 0; i < kFrames;) {
      std::byte* frame = view.TryReserve();
      if (frame == nullptr) {
        backoff.Idle();
        continue;
      }
      backoff.Reset();
      const std::uint64_t words[2] = {i, ~i};
      std::memcpy(frame, words, sizeof(words));
      view.Commit();
      ++i;
    }
  });

  flipc::test_util::PollBackoff backoff;
  for (std::uint64_t i = 0; i < kFrames;) {
    const std::byte* frame = view.Front();
    if (frame == nullptr) {
      backoff.Idle();
      continue;
    }
    backoff.Reset();
    std::uint64_t words[2] = {0, 0};
    std::memcpy(words, frame, sizeof(words));
    view.Pop();
    ASSERT_EQ(words[0], i);
    ASSERT_EQ(words[1], ~i);
    ++i;
  }
  producer.join();
  EXPECT_EQ(view.Front(), nullptr);
}

}  // namespace
}  // namespace flipc::waitfree
