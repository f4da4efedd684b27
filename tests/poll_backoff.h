// Idle backoff for the two-thread stress tests' poll loops.
//
// Yielding on every empty poll stalls these tests beside CPU load (other
// tests' engine threads under ctest -j, or a busy loop on every core): a
// yielding thread stays runnable, so the scheduler may hand the core to
// the busy loop for a whole slice, and a peer queued on the same core
// waits behind it. One 30000-item round trip then takes minutes.
//
// PollBackoff spins a bounded number of empty polls first, which covers
// the usual sub-microsecond handoff when the peer is running on another
// core. After that it sleeps briefly instead of yielding: a sleeping
// thread leaves the run queue, so a peer on the same core runs at once,
// and on wake-up the scheduler's sleeper credit lets it preempt a busy
// loop promptly. A single-CPU host still makes progress.
#ifndef TESTS_POLL_BACKOFF_H_
#define TESTS_POLL_BACKOFF_H_

#include <chrono>
#include <cstdint>
#include <thread>

#include "src/base/locks.h"

namespace flipc::test_util {

class PollBackoff {
 public:
  static constexpr std::uint32_t kSpinPolls = 4096;

  // Call after a poll that found nothing to do.
  void Idle() {
    if (idle_polls_ < kSpinPolls) {
      ++idle_polls_;
      CpuRelax();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  // Call after a poll that made progress.
  void Reset() { idle_polls_ = 0; }

 private:
  std::uint32_t idle_polls_ = 0;
};

}  // namespace flipc::test_util

#endif  // TESTS_POLL_BACKOFF_H_
