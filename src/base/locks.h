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
// engine runner sleep without a waker ever taking a lock, or executing a
// fence, to find out that the runner is awake.
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
// deliveries, wire-ring drains). A Dekker pair: each side stores its own
// word, orders that store before reading the other side's word, and
// reads it.
//
//   waker:  publish work (release stores);  WakeNeeded(): compiler barrier,
//           load parked
//   parker: AnnouncePark(): store parked, process-wide barrier;
//           re-check for work
//
// The pair is asymmetric, because wakes are frequent and parks are rare
// (one park per ~10^4 messages on a stream). The waker pays no fence at
// all: a compiler barrier keeps its load after its publishing stores in
// program order, and nothing more. The parker pays for both sides:
// membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED) makes every thread of this
// process that is running at that moment execute a full memory barrier
// before the call returns (a thread that is not running passes one when
// it is switched out or in). So for any waker, either its publishing
// stores drained before that barrier point, and the parker's re-check,
// which follows the call, sees the work; or its parked load comes after
// the barrier point, which follows the parker's store, and it sees the
// announce and must deliver a wake (under whatever lock the sleep itself
// uses). No interleaving lets both miss; tests/model_check_test.cc
// enumerates them and tests/park_wake_litmus_test.cc drives the pair on
// real threads. This is the asymmetric-fence argument of liburcu and of
// folly's asymmetric_thread_fence_heavy/light.
//
// Platform: Linux >= 4.14 (membarrier's private expedited command). The
// process registers for it once, at the first EngineRunner::Start (or the
// first park, whichever comes first); a kernel that refuses aborts the
// process with a message naming the requirement. There is no fallback
// fence: one handshake, one proof. It covers the threads of THIS process
// only; wakers in other processes (applications attached to a shared
// communication buffer) would need MEMBARRIER_CMD_GLOBAL_EXPEDITED, with
// each of them registering at attach.
class ParkWakeFlag {
 public:
  // Registers this process for the parker's barrier. Idempotent and
  // thread-safe: only the first call asks the kernel. Aborts, naming the
  // requirement, if the kernel refuses.
  static void RegisterProcess();

  // Parker: announce the park. The caller must then re-check for work
  // (and for a stop request) before it sleeps.
  void AnnouncePark() {
    parked_.store(true, std::memory_order_relaxed);
    ProcessWideBarrier();
  }

  // Parker: back to running (after waking, or when the re-check found work).
  void ClearPark() { parked_.store(false, std::memory_order_relaxed); }

  // Waker, after publishing work: whether the parker may be asleep (or
  // about to sleep) and must be woken. A compiler barrier and one load.
  bool WakeNeeded() const {
    CompilerBarrier();
    return parked_.load(std::memory_order_relaxed);
  }

 private:
  // Keeps the compiler from moving memory accesses across it; emits no
  // instruction.
  static void CompilerBarrier() { asm volatile("" ::: "memory"); }

  // membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED): a full barrier on every
  // running thread of the process. Registers first if nothing has.
  static void ProcessWideBarrier();

  std::atomic<bool> parked_{false};
};

}  // namespace flipc

#endif  // SRC_BASE_LOCKS_H_
