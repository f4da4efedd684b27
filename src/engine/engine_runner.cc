#include "src/engine/engine_runner.h"

#include <chrono>

#include "src/base/hotpath.h"
#include "src/waitfree/boundary_check.h"

namespace flipc::engine {

EngineRunner::EngineRunner(MessagingEngine& engine, Options options)
    : engine_(engine), options_(options) {}

EngineRunner::~EngineRunner() { Stop(); }

void EngineRunner::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return;
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void EngineRunner::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  Kick();
  thread_.join();
  running_.store(false, std::memory_order_release);
}

void EngineRunner::Kick() {
  kicks_.fetch_add(1, std::memory_order_release);
  idle_cv_.notify_one();
}

void EngineRunner::Loop() {
  // This thread IS the messaging engine: register it with the ownership
  // race detector so any write it makes to an application-owned word in
  // the communication buffer aborts with a diagnostic (no-op unless
  // FLIPC_CHECK_SINGLE_WRITER).
  waitfree::BoundaryRole::BindCurrentThread(waitfree::Writer::kEngine);

  // Number of consecutive empty polls before parking.
  constexpr int kSpinBudget = 64;
  int idle_polls = 0;

  FLIPC_UNBOUNDED_WAIT("engine thread main loop: runs until Stop()");
  while (!stop_.load(std::memory_order_acquire)) {
    const std::uint64_t kicks_before = kicks_.load(std::memory_order_acquire);
    if (engine_.Step()) {
      idle_polls = 0;
      continue;
    }
    if (++idle_polls < kSpinBudget) {
      std::this_thread::yield();
      continue;
    }
    // Parking the engine's host thread is a blocking call. The engine has
    // already reported no work, so no hot-path scope should be open here —
    // if one ever is, the guard makes the mistake loud.
    hotpath::OnBlockingCall("EngineRunner idle park");
    // Cap the park at the engine's earliest unthrottle instant: a doorbell
    // kick wakes the loop for NEW work, but work already queued behind a
    // rate gate generates no kick when the gate lapses — only the timeout
    // can discover it, so the timeout must not overshoot the gate.
    const Clock* clock = engine_.clock();
    const TimeNs now = clock != nullptr ? clock->NowNs() : 0;
    const DurationNs park_ns =
        IdleParkNs(now, engine_.NextUnthrottleTime(), options_.max_idle_park_ns);
    idle_parks_.fetch_add(1, std::memory_order_relaxed);
    if (park_ns > 0) {
      std::unique_lock<std::mutex> lock(idle_mutex_);
      idle_cv_.wait_for(lock, std::chrono::nanoseconds(park_ns), [&] {
        return stop_.load(std::memory_order_acquire) ||
               kicks_.load(std::memory_order_acquire) != kicks_before;
      });
    }
    idle_polls = 0;
  }

  waitfree::BoundaryRole::UnbindCurrentThread();
}

}  // namespace flipc::engine
