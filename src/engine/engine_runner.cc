#include "src/engine/engine_runner.h"

#include <chrono>

#include "src/base/hotpath.h"
#include "src/waitfree/boundary_check.h"

namespace flipc::engine {

EngineRunner::EngineRunner(MessagingEngine& engine, EngineWaker& waker, Options options)
    : engine_(engine), options_(options), waker_(waker) {}

EngineRunner::~EngineRunner() { Stop(); }

void EngineRunner::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return;
  }
  ParkWakeFlag::RegisterProcess();
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void EngineRunner::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  // Published before the wake, like any work: a park's re-check sees it.
  stop_.store(true, std::memory_order_release);
  Kick();
  thread_.join();
  running_.store(false, std::memory_order_release);
}

void EngineRunner::Loop() {
  // This thread IS the messaging engine: register it with the ownership
  // race detector so any write it makes to an application-owned word in
  // the communication buffer aborts with a diagnostic (no-op unless
  // FLIPC_CHECK_SINGLE_WRITER).
  waitfree::BoundaryRole::BindCurrentThread(waitfree::Writer::kEngine);

  // Number of consecutive empty polls before parking. An idle Step() plans
  // once, so a poll (Step plus yield) takes about 0.4 us on a 4-vCPU host;
  // 128 of them keep the spin window at least as long as the 64 two-plan
  // polls before, so a stream's short gaps between bursts do not park.
  constexpr int kSpinBudget = 128;
  int idle_polls = 0;

  FLIPC_UNBOUNDED_WAIT("engine thread main loop: runs until Stop()");
  while (!stop_.load(std::memory_order_acquire)) {
    if (engine_.Step()) {
      idle_polls = 0;
      continue;
    }
    if (++idle_polls < kSpinBudget) {
      std::this_thread::yield();
      continue;
    }
    idle_polls = 0;
    Park();
  }

  waitfree::BoundaryRole::UnbindCurrentThread();
}

void EngineRunner::Park() {
  // Parking the engine's host thread is a blocking call. The engine has
  // already reported no work, so no hot-path scope should be open here —
  // if one ever is, the guard makes the mistake loud.
  hotpath::OnBlockingCall("EngineRunner idle park");
  // Cap the park at the engine's earliest unthrottle instant: a wake
  // announces NEW work, but work already queued behind a rate gate
  // generates no wake when the gate lapses — only the timeout can discover
  // it, so the timeout must not overshoot the gate.
  const Clock* clock = engine_.clock();
  const TimeNs now = clock != nullptr ? clock->NowNs() : 0;
  const DurationNs park_ns =
      IdleParkNs(now, engine_.NextUnthrottleTime(), options_.max_idle_park_ns);
  if (park_ns <= 0) {
    return;
  }
  // The park/wake handshake. The mutex is held from before the announce to
  // the wait, so a waker that saw the announce can only bump wake_seq_
  // once this thread is really waiting (or has given up the park).
  std::unique_lock<std::mutex> lock(waker_.mutex_);
  waker_.flag_.AnnouncePark();
  // The re-check: work (or a stop) that a waker published before the
  // announce's process-wide barrier reached it is visible here; a waker
  // the barrier reached first sees the announce and wakes us.
  if (stop_.load(std::memory_order_acquire) || engine_.HasWork()) {
    waker_.flag_.ClearPark();
    return;
  }
  idle_parks_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t seq = waker_.wake_seq_;
  const bool woken = waker_.cv_.wait_for(lock, std::chrono::nanoseconds(park_ns), [&] {
    return waker_.wake_seq_ != seq || stop_.load(std::memory_order_acquire);
  });
  waker_.flag_.ClearPark();
  if (woken) {
    kicks_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace flipc::engine
