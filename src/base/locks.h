// Locks for synchronization *among application threads*.
//
// The paper's synchronization split: application<->engine synchronization is
// wait-free (src/waitfree/), while application-thread<->application-thread
// mutual exclusion uses conventional locking. Two lock types matter here:
//
//  * TasLock — the test-and-set lock the paper's "locked" interface variants
//    use. On the Paragon the test-and-set had to lock the memory bus (the
//    caches did not implement lock residency), which is why the paper added
//    lock-free interface variants; the cost model charges for that.
//  * PetersonLock — 2-party mutual exclusion from loads and stores only,
//    i.e. the memory model the paper says the programmable controllers are
//    limited to. FLIPC's production structures avoid even this (single-writer
//    separation), but the lock is provided and tested to document the model.
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

// Peterson's algorithm for two parties identified as side 0 and side 1.
// Uses only atomic loads and stores (seq_cst, which the classic algorithm
// requires for the store/load ordering between `interested` and `turn`).
//
// seq_cst whitelist (tools/flipc_hotpath_lint): the four sequentially
// consistent accesses below, with ParkWakeFlag's two fences, are the ONLY
// ones the lint permits anywhere. Peterson's algorithm is correct exactly because the
// `interested` store is globally ordered before the `turn` store, and both
// before the two loads — acquire/release cannot provide that store->load
// ordering (it allows the classic both-sides-enter reordering), so these
// four cannot be weakened. FLIPC's production structures never pay this
// fence: they need no mutual exclusion at all (single-writer separation,
// docs/MEMORY_MODEL.md). The lock exists to document the
// loads-and-stores-only memory model of the paper's controllers, and its
// acquisition reports to the hot-path guard like any other lock.
class FLIPC_CAPABILITY("PetersonLock") PetersonLock {
 public:
  void Lock(int side) FLIPC_ACQUIRE() {
    hotpath::OnLockAcquire("PetersonLock::Lock");
    const int other = 1 - side;
    interested_[side].store(true, std::memory_order_seq_cst);
    turn_.store(other, std::memory_order_seq_cst);
    FLIPC_UNBOUNDED_WAIT("lock spin: bounded only by the other side's exit");
    while (interested_[other].load(std::memory_order_seq_cst) &&
           turn_.load(std::memory_order_seq_cst) == other) {
      CpuRelax();
    }
  }

  void Unlock(int side) FLIPC_RELEASE() {
    interested_[side].store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool> interested_[2] = {false, false};
  std::atomic<int> turn_{0};
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
// the whitelist's other two lines. A store->load ordering across two
// threads is exactly what acquire/release cannot give, so they cannot be
// weakened; and they must stay explicit fences, never hidden inside
// default-ordered atomics.
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

// RAII guard for PetersonLock.
class FLIPC_SCOPED_CAPABILITY PetersonGuard {
 public:
  PetersonGuard(PetersonLock& lock, int side) FLIPC_ACQUIRE(lock)
      : lock_(lock), side_(side) {
    lock_.Lock(side_);
  }
  ~PetersonGuard() FLIPC_RELEASE() { lock_.Unlock(side_); }
  PetersonGuard(const PetersonGuard&) = delete;
  PetersonGuard& operator=(const PetersonGuard&) = delete;

 private:
  PetersonLock& lock_;
  int side_;
};

}  // namespace flipc

#endif  // SRC_BASE_LOCKS_H_
