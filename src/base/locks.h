// Locks for synchronization *among application threads*.
//
// The paper's synchronization split: application<->engine synchronization is
// wait-free (src/waitfree/), while application-thread<->application-thread
// mutual exclusion uses conventional locking: TasLock, the test-and-set
// lock the paper's "locked" interface variants use. On the Paragon the
// test-and-set had to lock the memory bus (the caches did not implement
// lock residency), which is why the paper added lock-free interface
// variants; the cost model charges for that.
//
// Also here: ParkWakeFlag, the Dekker-style handshake that lets an idle
// engine runner sleep without a waker ever taking a lock to find out that
// the runner is awake.
#ifndef SRC_BASE_LOCKS_H_
#define SRC_BASE_LOCKS_H_

#include <atomic>

#include "src/base/hotpath.h"
#include "src/base/thread_annotations.h"
#include "src/base/types.h"

namespace flipc {

// Pause hint for spin-wait loops: tells the CPU the core is busy-waiting so
// it can yield pipeline resources to the sibling hyperthread and leave the
// contended line in a polite MESI state. Semantically a no-op.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Simple test-and-set spinlock. Satisfies Lockable.
//
// Both acquisition paths report to the hot-path guard (src/base/hotpath.h):
// the bus-locked test-and-set is exactly the cost the paper's lock-free
// interface variants exist to shed, so acquiring it inside an armed
// FLIPC_HOT_PATH scope is a violation. No-op in default builds.
class FLIPC_CAPABILITY("TasLock") TasLock {
 public:
  TasLock() = default;
  TasLock(const TasLock&) = delete;
  TasLock& operator=(const TasLock&) = delete;

  void lock() FLIPC_ACQUIRE() {
    hotpath::OnLockAcquire("TasLock::lock");
    FLIPC_UNBOUNDED_WAIT("lock spin: bounded only by the holder's release");
    while (flag_.test_and_set(std::memory_order_acquire)) {
      // Spin on a plain load to avoid hammering the bus with RMWs.
      FLIPC_UNBOUNDED_WAIT("lock spin: bounded only by the holder's release");
      while (flag_.test(std::memory_order_relaxed)) {
        CpuRelax();
      }
    }
  }

  bool try_lock() FLIPC_TRY_ACQUIRE(true) {
    hotpath::OnLockAcquire("TasLock::try_lock");
    return !flag_.test_and_set(std::memory_order_acquire);
  }

  void unlock() FLIPC_RELEASE() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

// The park/wake handshake between one parking thread (an engine runner
// about to sleep) and any number of wakers (application sends, fabric
// deliveries). A Dekker pair: each side stores its own word, fences, and
// reads the other side's.
//
//   waker:  publish work (release stores);   WakeNeeded(): fence, load parked
//   parker: AnnouncePark(): store parked, fence;   re-check for work
//
// If the parker's re-check misses the work, the two fences order the
// parker's store before the waker's load, so the waker sees `parked` and
// must deliver a wake (under whatever lock the sleep itself uses). No
// interleaving lets both miss — tests/model_check_test.cc enumerates them.
// A waker that finds the runner running pays one fence and one load.
//
// seq_cst whitelist (tools/flipc_hotpath_lint): the two fences below are
// the only sequentially consistent operations the lint permits anywhere.
// A store->load ordering across two threads is exactly what
// acquire/release cannot give, so they cannot be weakened; and they must
// stay explicit fences, never hidden inside default-ordered atomics.
class ParkWakeFlag {
 public:
  // Parker: announce the park. The caller must then re-check for work
  // (and for a stop request) before it sleeps.
  void AnnouncePark() {
    parked_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  // Parker: back to running (after waking, or when the re-check found work).
  void ClearPark() { parked_.store(false, std::memory_order_relaxed); }

  // Waker, after publishing work: whether the parker may be asleep (or
  // about to sleep) and must be woken.
  bool WakeNeeded() const {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return parked_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> parked_{false};
};

}  // namespace flipc

#endif  // SRC_BASE_LOCKS_H_
