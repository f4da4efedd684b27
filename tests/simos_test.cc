// Tests for the simulated-OS layer: real-time semaphore (priority wakeup)
// and the semaphore table.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/simos/real_time_semaphore.h"
#include "src/simos/semaphore_table.h"

namespace flipc::simos {
namespace {

// ----------------------------- RealTimeSemaphore ----------------------------

TEST(RealTimeSemaphore, PostBeforeWait) {
  RealTimeSemaphore sem;
  sem.Post();
  EXPECT_EQ(sem.permits(), 1u);
  EXPECT_TRUE(sem.Wait(0, 0).ok());  // immediate grant, no timeout needed
  EXPECT_EQ(sem.permits(), 0u);
}

TEST(RealTimeSemaphore, WaitTimesOut) {
  RealTimeSemaphore sem;
  const Status status = sem.Wait(0, 1'000'000);  // 1 ms
  EXPECT_EQ(status.code(), StatusCode::kTimedOut);
  EXPECT_EQ(sem.waiter_count(), 0u);  // waiter cleaned up
}

TEST(RealTimeSemaphore, TryWait) {
  RealTimeSemaphore sem;
  EXPECT_FALSE(sem.TryWait());
  sem.Post();
  EXPECT_TRUE(sem.TryWait());
  EXPECT_FALSE(sem.TryWait());
}

// The real-time property: the highest-priority waiter gets the permit,
// regardless of arrival order.
TEST(RealTimeSemaphore, HighestPriorityWakesFirst) {
  RealTimeSemaphore sem;
  std::atomic<int> woken{-1};
  std::atomic<int> started{0};

  auto waiter = [&](Priority priority, int id) {
    started.fetch_add(1);
    ASSERT_TRUE(sem.Wait(priority).ok());
    int expected = -1;
    woken.compare_exchange_strong(expected, id);
  };

  std::thread low(waiter, 1, 1);
  std::thread high(waiter, 10, 2);
  // Let both block.
  while (sem.waiter_count() != 2) {
    std::this_thread::yield();
  }
  sem.Post();
  high.join();
  EXPECT_EQ(woken.load(), 2);  // the high-priority waiter won
  sem.Post();
  low.join();
}

TEST(RealTimeSemaphore, FifoWithinPriority) {
  RealTimeSemaphore sem;
  std::vector<int> order;
  std::mutex order_mutex;
  std::vector<std::thread> threads;

  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      ASSERT_TRUE(sem.Wait(5).ok());
      std::lock_guard<std::mutex> guard(order_mutex);
      order.push_back(i);
    });
    // Ensure deterministic arrival order.
    while (sem.waiter_count() != static_cast<std::uint32_t>(i + 1)) {
      std::this_thread::yield();
    }
  }
  for (int i = 0; i < 3; ++i) {
    sem.Post();
    // Wait for one wakeup before posting the next.
    while (true) {
      std::lock_guard<std::mutex> guard(order_mutex);
      if (order.size() == static_cast<std::size_t>(i + 1)) {
        break;
      }
    }
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(RealTimeSemaphore, TryWaitCannotStealFromWaiter) {
  RealTimeSemaphore sem;
  std::thread blocked([&] { ASSERT_TRUE(sem.Wait(10).ok()); });
  while (sem.waiter_count() != 1) {
    std::this_thread::yield();
  }
  sem.Post();
  // The permit is already granted to the blocked waiter.
  EXPECT_FALSE(sem.TryWait());
  blocked.join();
}

// ------------------------------ SemaphoreTable -------------------------------

TEST(SemaphoreTable, AllocateSignalFree) {
  SemaphoreTable table(4);
  auto id = table.Allocate();
  ASSERT_TRUE(id.ok());
  table.Signal(*id);
  EXPECT_EQ(table.Get(*id)->permits(), 1u);
  EXPECT_TRUE(table.Free(*id).ok());
  EXPECT_EQ(table.Get(*id), nullptr);
}

TEST(SemaphoreTable, SignalUnknownIdIsNoop) {
  SemaphoreTable table(4);
  table.Signal(999);  // must not crash
  table.Signal(2);    // unallocated slot
}

TEST(SemaphoreTable, Exhaustion) {
  SemaphoreTable table(2);
  ASSERT_TRUE(table.Allocate().ok());
  ASSERT_TRUE(table.Allocate().ok());
  EXPECT_EQ(table.Allocate().status().code(), StatusCode::kResourceExhausted);
}

TEST(SemaphoreTable, FreeRejectsBusySemaphore) {
  SemaphoreTable table(2);
  auto id = table.Allocate();
  ASSERT_TRUE(id.ok());
  std::thread waiter([&] { ASSERT_TRUE(table.Get(*id)->Wait(0).ok()); });
  while (table.Get(*id)->waiter_count() != 1) {
    std::this_thread::yield();
  }
  EXPECT_EQ(table.Free(*id).code(), StatusCode::kFailedPrecondition);
  table.Signal(*id);
  waiter.join();
  EXPECT_TRUE(table.Free(*id).ok());
}

}  // namespace
}  // namespace flipc::simos
