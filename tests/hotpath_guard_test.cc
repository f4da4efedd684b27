// Hot-path purity guard tests (src/base/hotpath.h).
//
// The guard layer's contract has four parts, each tested here:
//
//   1. Inside an armed FLIPC_HOT_PATH scope, an allocation, a lock
//      acquisition or a blocking call aborts with a diagnostic naming the
//      guard class and the enclosing scope label (death tests, one per
//      guard class).
//   2. The SAME operations outside any scope — or inside a documented
//      exemption — are untouched (negative tests).
//   3. GuardMode::kCount turns aborts into counters, which is what
//      bench_micro_waitfree uses to report allocations/locks per op.
//   4. The annotated product paths are clean: driving a send/receive cycle
//      through lock-free endpoint calls under armed guards must not die.
//
// In default builds (no FLIPC_CHECK_HOT_PATH) every guard compiles to
// nothing; the death tests skip and the negative tests still run.
#include <cstdint>

#include <gtest/gtest.h>

#include "src/base/hotpath.h"
#include "src/base/locks.h"
#include "src/waitfree/buffer_queue.h"
#include "src/waitfree/doorbell_ring.h"
#include "src/waitfree/drop_counter.h"

namespace flipc {
namespace {

using hotpath::GuardCounters;
using hotpath::GuardMode;
using hotpath::kHotPathCheckEnabled;

#ifdef FLIPC_CHECK_HOT_PATH

TEST(HotPathGuardDeathTest, AllocationInsideScopeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        FLIPC_HOT_PATH("test-alloc-scope");
        // Call the allocator directly: the compiler may elide a paired
        // new/delete *expression* entirely (C++14 allocation elision),
        // which would skip the replaced operator new.
        void* p = ::operator new(32);
        ::operator delete(p);
      },
      "hot-path violation: allocation.*test-alloc-scope");
}

TEST(HotPathGuardDeathTest, LockAcquisitionInsideScopeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        TasLock lock;
        FLIPC_HOT_PATH("test-lock-scope");
        lock.lock();
      },
      "hot-path violation: lock acquisition.*test-lock-scope");
}

TEST(HotPathGuardDeathTest, BlockingCallInsideScopeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        FLIPC_HOT_PATH("test-blocking-scope");
        hotpath::OnBlockingCall("simulated blocking primitive");
      },
      "hot-path violation: blocking call.*test-blocking-scope");
}

TEST(HotPathGuardDeathTest, InnermostLabelIsReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        FLIPC_HOT_PATH("outer-scope");
        FLIPC_HOT_PATH("inner-scope");
        void* p = ::operator new(32);  // non-elidable, see above
        ::operator delete(p);
      },
      "hot-path violation: allocation.*inner-scope");
}

#endif  // FLIPC_CHECK_HOT_PATH

// ---- Negative coverage: the guards must stay quiet off the hot path --------

TEST(HotPathGuardTest, AllocationOutsideScopeIsUntouched) {
  // No scope: allocation is ordinary. Dying here would mean the guards
  // leak outside their scopes — the one failure mode worse than missing a
  // violation.
  int* p = new int(7);
  EXPECT_EQ(*p, 7);
  delete p;
  EXPECT_FALSE(hotpath::InHotPathScope());
}

TEST(HotPathGuardTest, LocksOutsideScopeAreUntouched) {
  TasLock lock;
  lock.lock();
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(HotPathGuardTest, ExemptionSuspendsGuards) {
  bool in_scope_during_exemption = true;
  bool in_scope_after_exemption = false;
  {
    FLIPC_HOT_PATH("exemption-test-scope");
    {
      FLIPC_HOT_PATH_EXEMPT("test: modeling off-path work inside a scope");
      int* p = new int(3);  // would abort without the exemption
      delete p;
      in_scope_during_exemption = hotpath::InHotPathScope();
    }
    in_scope_after_exemption = hotpath::InHotPathScope();
  }
  EXPECT_FALSE(in_scope_during_exemption);
  EXPECT_EQ(in_scope_after_exemption, kHotPathCheckEnabled);
}

TEST(HotPathGuardTest, DisarmedScopeDoesNotGuard) {
  FLIPC_HOT_PATH_IF(false, "never-armed");
  int* p = new int(9);  // the locked interface variants take this shape
  delete p;
  EXPECT_FALSE(hotpath::InHotPathScope());
}

TEST(HotPathGuardTest, CountModeCountsInsteadOfAborting) {
  if (!kHotPathCheckEnabled) {
    GTEST_SKIP() << "guard counters need -DFLIPC_CHECK_HOT_PATH=ON";
  }
  hotpath::SetGuardMode(GuardMode::kCount);
  hotpath::ResetGuardCounters();
  {
    FLIPC_HOT_PATH("count-mode-scope");
    void* p = ::operator new(32);  // non-elidable, see above
    ::operator delete(p);
    TasLock lock;
    lock.lock();
    lock.unlock();
    hotpath::OnBlockingCall("counted blocking call");
  }
  const GuardCounters counters = hotpath::ReadGuardCounters();
  hotpath::SetGuardMode(GuardMode::kAbort);
  EXPECT_EQ(counters.scope_entries, 1u);
  EXPECT_EQ(counters.allocations, 2u);  // the new and the delete
  EXPECT_EQ(counters.locks, 1u);
  EXPECT_EQ(counters.blocking_calls, 1u);
}

// ---- The annotated wait-free structures are clean under armed guards -------

TEST(HotPathGuardTest, WaitFreeStructuresRunCleanUnderArmedGuards) {
  // Queue cycle, doorbell ring/pop, drop counter — all annotated with
  // FLIPC_HOT_PATH. In an armed build any allocation or lock inside them
  // aborts this test; in a default build this is plain coverage.
  waitfree::InlineBufferQueue<8> queue;
  waitfree::InlineDoorbellRing<8> ring;
  waitfree::DropCounter drops;

  for (std::uint32_t round = 0; round < 1000; ++round) {
    ASSERT_TRUE(queue.view().Release(round % 8));
    ASSERT_NE(queue.view().PeekProcess(), waitfree::kInvalidBuffer);
    queue.view().AdvanceProcess();
    ASSERT_EQ(queue.view().Acquire(), round % 8);

    ring.view().Ring(round % 4);
    ASSERT_EQ(ring.view().Pop(), round % 4);

    drops.RecordDrop();
  }
  EXPECT_EQ(drops.ReadAndReset(), 1000u);
  EXPECT_EQ(drops.Count(), 0u);

  if (kHotPathCheckEnabled) {
    // The annotations actually fired: every operation above entered a scope.
    hotpath::SetGuardMode(GuardMode::kCount);
    hotpath::ResetGuardCounters();
    queue.view().Release(0);
    const GuardCounters counters = hotpath::ReadGuardCounters();
    hotpath::SetGuardMode(GuardMode::kAbort);
    EXPECT_GE(counters.scope_entries, 1u);
    EXPECT_EQ(counters.allocations, 0u);
    EXPECT_EQ(counters.locks, 0u);
  }
}

}  // namespace
}  // namespace flipc
