// Real-concurrency engine driver: runs a MessagingEngine's event loop on a
// dedicated host thread, standing in for the Paragon MP3 node's message
// coprocessor. Used by the examples and the multi-threaded stress tests.
#ifndef SRC_ENGINE_ENGINE_RUNNER_H_
#define SRC_ENGINE_ENGINE_RUNNER_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/base/hotpath.h"
#include "src/base/locks.h"
#include "src/engine/messaging_engine.h"

namespace flipc::engine {

// The waking half of an engine's idle park, owned by whoever outlives the
// runners that park on it (a Cluster node keeps one across
// KillEngine/RestartEngine). Application sends and fabric deliveries call
// Wake() after publishing work; a runner that is running costs them one
// load, with no fence (ParkWakeFlag), and only a runner that announced a
// park costs a lock and a notify.
class EngineWaker {
 public:
  EngineWaker() = default;
  EngineWaker(const EngineWaker&) = delete;
  EngineWaker& operator=(const EngineWaker&) = delete;

  // Call after the work it announces is published.
  void Wake() {
    if (!flag_.WakeNeeded()) {
      return;
    }
    {
      ScopedLock<std::mutex> lock(mutex_);
      ++wake_seq_;
    }
    cv_.notify_one();
  }

 private:
  friend class EngineRunner;

  ParkWakeFlag flag_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t wake_seq_ FLIPC_GUARDED_BY(mutex_) = 0;  // a park waits for it to move
};

class EngineRunner {
 public:
  struct Options {
    // Longest the loop parks on its idle condvar before re-polling. The
    // park is capped further by the engine's next unthrottle deadline (see
    // IdleParkNs): a throttled endpoint whose gate lapses sooner than this
    // must not wait out the full interval — that was the fixed-200us bug
    // that added up to 200us of latency to every rate-limited release
    // arriving while the node was otherwise quiet.
    DurationNs max_idle_park_ns = 200'000;
  };

  // Takes non-owning references; the engine (and everything it
  // references) and the waker must outlive the runner.
  EngineRunner(MessagingEngine& engine, EngineWaker& waker, Options options);
  ~EngineRunner();
  EngineRunner(const EngineRunner&) = delete;
  EngineRunner& operator=(const EngineRunner&) = delete;

  // Starts the loop thread. The first Start in a process registers it for
  // the park's process-wide barrier (ParkWakeFlag::RegisterProcess) and
  // aborts, naming the requirement, if the kernel refuses.
  void Start();
  void Stop();

  // Wakes the loop if it is parked (EngineWaker::Wake on this runner's
  // waker). The application library calls this after releasing buffers;
  // the fabric's delivery callback should also be pointed here.
  void Kick() { waker_.Wake(); }

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Times the loop exhausted its spin budget, found no work on the park
  // handshake's re-check, and slept on the idle condvar. With the doorbell
  // scheduler this should grow only while the node is genuinely quiet.
  std::uint64_t idle_parks() const { return idle_parks_.load(std::memory_order_relaxed); }

  // Parks that ended in a wake (rather than the park timeout). Wakes aimed
  // at a running loop cost one load and are not counted, so on a
  // busy node this stays near zero however many sends and deliveries
  // there are.
  std::uint64_t kicks() const { return kicks_.load(std::memory_order_relaxed); }

  // How long an idle park may sleep, given the engine's earliest
  // unthrottle instant. Pure so the regression test can pin the edge
  // cases: no throttled work (kTimeNever) sleeps the configured maximum, a
  // lapsed gate does not sleep at all, and a pending gate caps the sleep
  // at exactly the remaining wait.
  static DurationNs IdleParkNs(TimeNs now, TimeNs next_unthrottle,
                               DurationNs max_park_ns) {
    if (next_unthrottle == kTimeNever) {
      return max_park_ns;
    }
    if (next_unthrottle <= now) {
      return 0;
    }
    const TimeNs remaining = next_unthrottle - now;
    return remaining < max_park_ns ? remaining : max_park_ns;
  }

 private:
  FLIPC_ROLE_ENGINE void Loop();
  // Sleeps until a wake, the park timeout or Stop(), unless the park
  // handshake's re-check finds work first. Opts out of the lock analysis:
  // the condvar wait needs std::unique_lock.
  void Park() FLIPC_NO_THREAD_SAFETY_ANALYSIS;

  MessagingEngine& engine_;
  Options options_;
  // Idle parking. The real coprocessor spins; on a shared host we spin
  // briefly and then park, to keep single-CPU test machines usable.
  EngineWaker& waker_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> kicks_{0};
  std::atomic<std::uint64_t> idle_parks_{0};
};

}  // namespace flipc::engine

#endif  // SRC_ENGINE_ENGINE_RUNNER_H_
