// Bounded exhaustive model checking of the wait-free structures.
//
// Stress tests sample interleavings; these tests ENUMERATE them. Because
// the application/engine protocol is wait-free with single-writer cells,
// every concurrent execution is equivalent to some interleaving of the two
// sides' atomic operations — and each side's operations are short,
// deterministic sequences. We therefore explore every interleaving of
// bounded operation sequences (up to a few thousand schedules) and check
// the queue and drop-counter invariants against a reference model in every
// one of them. A violation prints the exact schedule that produced it.
//
// The operation mixes and expected schedule counts for the two rings are
// GENERATED from the protocol IR the static certifier exports
// (tests/generated_model_schedules.h — see tools/flipc_static_audit
// --emit-schedules): when the wait-free protocol changes, the drift ctest
// regenerates the seeds rather than this file silently model-checking a
// stale operation mix. The claim/publish-grain doorbell model, the
// stalled-producer schedule and the drop-counter and park/wake tests at
// the bottom are documented extras: three producers inside Ring(), a
// producer stalled in Ring() against the real planner, a counter and a
// two-word handshake, none of them one of the generated two-sided mixes.
#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/locks.h"
#include "src/engine/messaging_engine.h"
#include "src/shm/comm_buffer.h"
#include "src/simnet/fabric.h"
#include "src/waitfree/boundary_check.h"
#include "src/waitfree/buffer_queue.h"
#include "src/waitfree/doorbell_ring.h"
#include "src/waitfree/drop_counter.h"
#include "src/waitfree/msg_state.h"
#include "tests/generated_model_schedules.h"

namespace flipc::waitfree {
namespace {

namespace gen = flipc::generated_schedules;

// One side of an interleaving: its boundary role, its label in schedule
// strings, and its operations in program order.
struct Side {
  Writer role;
  char label;
  std::vector<std::function<void()>> ops;
};

// Explores all interleavings of the sides' operation sequences. Each
// operation is a callback; `check` runs after every operation with the
// schedule string.
//
// Every operation executes under the boundary role of its side, so in a
// FLIPC_CHECK_SINGLE_WRITER build each enumerated schedule also runs with
// the ownership race detector armed: an app op that wrote an engine-owned
// cursor (or vice versa) in ANY interleaving would abort the test.
void ForAllInterleavings(const std::vector<Side>& sides,
                         const std::function<void(const std::string&)>& check,
                         const std::function<void()>& reset) {
  std::size_t total = 0;
  for (const Side& side : sides) {
    total += side.ops.size();
  }
  // A schedule is the side index taken at each step.
  std::vector<std::size_t> schedule(total);
  std::vector<std::size_t> done(sides.size(), 0);

  std::function<void(std::size_t)> recurse = [&](std::size_t step) {
    if (step == total) {
      // Replay this complete schedule from a fresh state.
      reset();
      std::string description;
      std::vector<std::size_t> next(sides.size(), 0);
      for (std::size_t s = 0; s < total; ++s) {
        const Side& side = sides[schedule[s]];
        {
          ScopedBoundaryRole role(side.role);
          side.ops[next[schedule[s]]++]();
        }
        description += side.label;
        check(description);
      }
      return;
    }
    for (std::size_t i = 0; i < sides.size(); ++i) {
      if (done[i] < sides[i].ops.size()) {
        schedule[step] = i;
        ++done[i];
        recurse(step + 1);
        --done[i];
      }
    }
  };
  recurse(0);
}

// The application-versus-engine case: schedules are strings of 'a' and 'e'.
void ForAllInterleavings(const std::vector<std::function<void()>>& app_ops,
                         const std::vector<std::function<void()>>& engine_ops,
                         const std::function<void(const std::string&)>& check,
                         const std::function<void()>& reset) {
  ForAllInterleavings({{Writer::kApplication, 'a', app_ops}, {Writer::kEngine, 'e', engine_ops}},
                      check, reset);
}

// ---- Queue: application releases/acquires vs engine peek/advance ----------

class QueueModel {
 public:
  static constexpr std::uint32_t kCapacity = gen::kModelCapacity;

  void Reset() {
    queue_ = std::make_unique<InlineBufferQueue<kCapacity>>();
    released_ = 0;
    processed_ = 0;
    acquired_ = 0;
  }

  // App op: release the next sequential value if the queue accepts it.
  void AppRelease() {
    if (queue_->view().Release(released_)) {
      ++released_;
    }
  }

  // App op: acquire, verifying FIFO against the model.
  void AppAcquire(const std::string& schedule) {
    const BufferIndex value = queue_->view().Acquire();
    if (value != kInvalidBuffer) {
      ASSERT_EQ(value, acquired_) << "out-of-order acquire in schedule " << schedule;
      ++acquired_;
    }
  }

  // Engine op: peek + advance one item if present, verifying FIFO.
  void EngineProcess(const std::string& schedule) {
    const BufferIndex value = queue_->view().PeekProcess();
    if (value != kInvalidBuffer) {
      ASSERT_EQ(value, processed_) << "out-of-order process in schedule " << schedule;
      queue_->view().AdvanceProcess();
      ++processed_;
    }
  }

  void CheckInvariants(const std::string& schedule) {
    // The model's cursor ordering must hold after every step.
    ASSERT_LE(acquired_, processed_) << schedule;
    ASSERT_LE(processed_, released_) << schedule;
    ASSERT_LE(released_ - acquired_, kCapacity) << schedule;
    ASSERT_EQ(queue_->view().Size(), released_ - acquired_) << schedule;
    ASSERT_EQ(queue_->view().ProcessableCount(), released_ - processed_) << schedule;
    ASSERT_EQ(queue_->view().AcquirableCount(), processed_ - acquired_) << schedule;
  }

 private:
  std::unique_ptr<InlineBufferQueue<kCapacity>> queue_;
  std::uint32_t released_ = 0;
  std::uint32_t processed_ = 0;
  std::uint32_t acquired_ = 0;
};

TEST(ModelCheck, QueueSteadyStateInterleavings) {
  QueueModel model;
  std::string current_schedule;

  // App side from the generated release/acquire mix ('R'/'A').
  std::vector<std::function<void()>> app_ops;
  for (const char* p = gen::kQueueSteadyAppOps; *p != '\0'; ++p) {
    if (*p == 'R') {
      app_ops.emplace_back([&] { model.AppRelease(); });
    } else {
      app_ops.emplace_back([&] { model.AppAcquire(current_schedule); });
    }
  }
  std::vector<std::function<void()>> engine_ops;
  for (unsigned i = 0; i < gen::kQueueSteadyEngineProcessOps; ++i) {
    engine_ops.emplace_back([&] { model.EngineProcess(current_schedule); });
  }

  int schedules = 0;
  ForAllInterleavings(
      app_ops, engine_ops,
      [&](const std::string& schedule) {
        current_schedule = schedule;
        model.CheckInvariants(schedule);
        if (schedule.size() == app_ops.size() + engine_ops.size()) {
          ++schedules;
        }
      },
      [&] { model.Reset(); });
  EXPECT_EQ(schedules, gen::kQueueSteadySchedules);
}

TEST(ModelCheck, QueueFullBoundaryInterleavings) {
  QueueModel model;
  std::string current_schedule;

  // Releases beyond capacity (some must be refused), then the acquires.
  std::vector<std::function<void()>> app_ops;
  for (unsigned i = 0; i < gen::kQueueFullReleaseOps; ++i) {
    app_ops.emplace_back([&] { model.AppRelease(); });
  }
  for (unsigned i = 0; i < gen::kQueueFullAcquireOps; ++i) {
    app_ops.emplace_back([&] { model.AppAcquire(current_schedule); });
  }

  std::vector<std::function<void()>> engine_ops;
  for (unsigned i = 0; i < gen::kQueueFullEngineProcessOps; ++i) {
    engine_ops.emplace_back([&] { model.EngineProcess(current_schedule); });
  }

  int schedules = 0;
  ForAllInterleavings(
      app_ops, engine_ops,
      [&](const std::string& schedule) {
        current_schedule = schedule;
        model.CheckInvariants(schedule);
        if (schedule.size() == app_ops.size() + engine_ops.size()) {
          ++schedules;
        }
      },
      [&] { model.Reset(); });
  EXPECT_EQ(schedules, gen::kQueueFullSchedules);
}

// ---- Doorbell ring: application rings vs engine pops -----------------------

// With whole operations as the interleaving grain the soft-full check in
// Ring() is exact (no producer overshoot), so every successful ring must be
// popped in FIFO order — no doorbell lost, none duplicated, none invented.
class DoorbellModel {
 public:
  static constexpr std::uint32_t kCapacity = gen::kModelCapacity;

  void Reset() {
    ring_ = std::make_unique<InlineDoorbellRing<kCapacity>>();
    rung_.clear();
    popped_ = 0;
    overflow_outstanding_ = false;
  }

  // App op: ring endpoint `value`; a refusal raises the overflow signal.
  void AppRing(std::uint32_t value) {
    if (ring_->view().Ring(value)) {
      rung_.push_back(value);
    } else {
      overflow_outstanding_ = true;
    }
  }

  // Engine op: pop one doorbell if published, verifying FIFO.
  void EnginePop(const std::string& schedule) {
    const std::uint32_t value = ring_->view().Pop();
    if (value != kInvalidDoorbell) {
      ASSERT_LT(popped_, rung_.size()) << "popped unrung doorbell in " << schedule;
      ASSERT_EQ(value, rung_[popped_]) << "out-of-order pop in schedule " << schedule;
      ++popped_;
    }
  }

  // Engine op: the overflow sweep trigger — acknowledge, then (in the real
  // engine) sweep. The sweep itself touches only engine-read
  // state, so acknowledging models the ring-side effect completely.
  void EngineAckOverflow() {
    if (ring_->view().OverflowPending()) {
      ring_->view().AckOverflow();
      overflow_outstanding_ = false;
    }
  }

  void CheckInvariants(const std::string& schedule) {
    ASSERT_LE(popped_, rung_.size()) << schedule;
    ASSERT_EQ(ring_->view().PendingCount(), rung_.size() - popped_) << schedule;
    ASSERT_LE(ring_->view().PendingCount(), kCapacity) << schedule;
    // The overflow signal is level-triggered: pending exactly when a ring
    // was refused after the last acknowledgement.
    ASSERT_EQ(ring_->view().OverflowPending(), overflow_outstanding_) << schedule;
  }

 private:
  std::unique_ptr<InlineDoorbellRing<kCapacity>> ring_;
  std::vector<std::uint32_t> rung_;
  std::size_t popped_ = 0;
  bool overflow_outstanding_ = false;
};

TEST(ModelCheck, DoorbellRingAllInterleavings) {
  DoorbellModel model;
  std::string current_schedule;

  // Rings one past capacity — schedules where the engine lags see a full
  // ring and must take the overflow path.
  std::vector<std::function<void()>> app_ops;
  for (std::uint32_t i = 0; i < gen::kDoorbellSteadyRingOps; ++i) {
    app_ops.emplace_back([&model, i] { model.AppRing(i); });
  }
  std::vector<std::function<void()>> engine_ops;
  for (unsigned i = 0; i < gen::kDoorbellSteadyPopOps; ++i) {
    engine_ops.emplace_back([&] { model.EnginePop(current_schedule); });
  }

  int schedules = 0;
  ForAllInterleavings(
      app_ops, engine_ops,
      [&](const std::string& schedule) {
        current_schedule = schedule;
        model.CheckInvariants(schedule);
        if (schedule.size() == app_ops.size() + engine_ops.size()) {
          ++schedules;
        }
      },
      [&] { model.Reset(); });
  EXPECT_EQ(schedules, gen::kDoorbellSteadySchedules);
}

TEST(ModelCheck, DoorbellOverflowAckInterleavings) {
  DoorbellModel model;
  std::string current_schedule;

  // Rings well past capacity guarantee refusals in every schedule ordering
  // the acks early; the engine runs the generated pop/ack mix ('P'/'A') —
  // every placement of the acknowledgement relative to refusals must keep
  // the signal level-exact (ack too early must leave a later refusal
  // pending).
  std::vector<std::function<void()>> app_ops;
  for (std::uint32_t i = 0; i < gen::kDoorbellOverflowRingOps; ++i) {
    app_ops.emplace_back([&model, i] { model.AppRing(i); });
  }
  std::vector<std::function<void()>> engine_ops;
  for (const char* p = gen::kDoorbellOverflowEngineOps; *p != '\0'; ++p) {
    if (*p == 'P') {
      engine_ops.emplace_back([&] { model.EnginePop(current_schedule); });
    } else {
      engine_ops.emplace_back([&] { model.EngineAckOverflow(); });
    }
  }

  int schedules = 0;
  ForAllInterleavings(
      app_ops, engine_ops,
      [&](const std::string& schedule) {
        current_schedule = schedule;
        model.CheckInvariants(schedule);
        if (schedule.size() == app_ops.size() + engine_ops.size()) {
          ++schedules;
        }
      },
      [&] { model.Reset(); });
  EXPECT_EQ(schedules, gen::kDoorbellOverflowSchedules);
}

// ---- Doorbell ring at the claim/publish grain ------------------------------
//
// Hand-written extra. The generated doorbell models interleave whole Ring()
// calls. Here Ring() runs as its two steps (ClaimSlot, PublishSlot) and
// producers interleave between them: a producer can hold a claimed,
// unpublished slot while later claims publish, and claims race the
// consumer for the last free slot. Three producers ring once each on a
// capacity-2 ring while the engine pops twice. The ring must be exact in
// every schedule: every successful claim is popped exactly once, in claim
// order, nothing unclaimed is popped, and every refused claim leaves the
// overflow signal pending.
class DoorbellClaimGrainModel {
 public:
  static constexpr std::uint32_t kCapacity = 2;
  static constexpr std::uint32_t kProducers = 3;

  void Reset() {
    ring_ = std::make_unique<InlineDoorbellRing<kCapacity>>();
    claimed_.fill(false);
    pos_.fill(0);
    claim_order_.clear();
    popped_ = 0;
    refused_ = false;
  }

  // Producer p's two steps; producer p rings value p.
  void Claim(std::uint32_t p) {
    claimed_[p] = ring_->view().ClaimSlot(&pos_[p]);
    if (claimed_[p]) {
      claim_order_.push_back(p);
    } else {
      refused_ = true;
    }
  }
  void Publish(std::uint32_t p) {
    if (claimed_[p]) {
      ring_->view().PublishSlot(pos_[p], p);
    }
  }

  void EnginePop(const std::string& schedule) {
    const std::uint32_t value = ring_->view().Pop();
    if (value == kInvalidDoorbell) {
      return;
    }
    ASSERT_LT(popped_, claim_order_.size()) << "popped unclaimed doorbell in " << schedule;
    ASSERT_EQ(value, claim_order_[popped_])
        << "pop " << popped_ << " out of claim order in " << schedule;
    ++popped_;
  }

  void CheckInvariants(const std::string& schedule) {
    ASSERT_EQ(ring_->view().PendingCount(), claim_order_.size() - popped_) << schedule;
    ASSERT_LE(ring_->view().PendingCount(), kCapacity) << schedule;
    // Nothing acknowledges the signal here, so it stays raised.
    ASSERT_EQ(ring_->view().OverflowPending(), refused_) << schedule;
  }

  // Runs once every producer has published: the claims not yet popped pop
  // now, in claim order, and the ring then reads empty and accepts rings
  // up to its capacity again.
  void CheckDrained(const std::string& schedule) {
    {
      ScopedBoundaryRole role(Writer::kEngine);
      for (std::uint32_t i = 0; i < kCapacity + 1; ++i) {
        EnginePop(schedule);
      }
    }
    ASSERT_EQ(popped_, claim_order_.size()) << "claimed doorbell never popped in " << schedule;
    ASSERT_EQ(ring_->view().PendingCount(), 0u) << schedule;
    ASSERT_FALSE(ring_->view().HasPending()) << schedule;
    ASSERT_FALSE(ring_->view().HeadStalled()) << schedule;
    ScopedBoundaryRole role(Writer::kApplication);
    for (std::uint32_t i = 0; i < kCapacity; ++i) {
      ASSERT_TRUE(ring_->view().Ring(100 + i)) << "ring refused below full in " << schedule;
    }
  }

 private:
  std::unique_ptr<InlineDoorbellRing<kCapacity>> ring_;
  std::array<bool, kProducers> claimed_{};
  std::array<std::uint32_t, kProducers> pos_{};
  std::vector<std::uint32_t> claim_order_;
  std::size_t popped_ = 0;
  bool refused_ = false;
};

TEST(ModelCheck, DoorbellClaimPublishGrainNeverWedges) {
  DoorbellClaimGrainModel model;
  std::string current_schedule;

  std::vector<Side> sides;
  for (std::uint32_t p = 0; p < DoorbellClaimGrainModel::kProducers; ++p) {
    sides.push_back({Writer::kApplication,
                     static_cast<char>('0' + p),
                     {[&model, p] { model.Claim(p); }, [&model, p] { model.Publish(p); }}});
  }
  sides.push_back({Writer::kEngine,
                   'e',
                   {[&] { model.EnginePop(current_schedule); },
                    [&] { model.EnginePop(current_schedule); }}});
  std::size_t total = 0;
  for (const Side& side : sides) {
    total += side.ops.size();
  }

  int schedules = 0;
  ForAllInterleavings(
      sides,
      [&](const std::string& schedule) {
        current_schedule = schedule;
        model.CheckInvariants(schedule);
        if (schedule.size() == total) {
          model.CheckDrained(schedule);
          ++schedules;
        }
      },
      [&] { model.Reset(); });
  EXPECT_EQ(schedules, 2520);  // 8! / (2! 2! 2! 2!)
}

// ---- A producer stalled between claim and publish -------------------------
//
// Hand-written extra, with the real planner. Producer 0 releases a send
// and claims a doorbell slot, then stalls before publishing it: the ring's
// head position holds a claimed, unpublished slot for the rest of the run.
// Producer 1 releases, claims and publishes behind it; the engine steps
// once anywhere in between. In every schedule the engine must then report
// work and send both messages: its doorbell path cannot reach producer 1's
// doorbell, so it has to sweep (trigger (b) in
// MessagingEngine::PlanOutboundBatch) — and after that sweep it must not
// keep sweeping for the same claims.
class StalledProducerModel {
 public:
  void Reset() {
    shm::CommBufferConfig config;
    config.message_size = 64;
    config.buffer_count = 8;
    config.max_endpoints = 4;
    auto comm = shm::CommBuffer::Create(config);
    ASSERT_TRUE(comm.ok());
    engine_.reset();
    comm_ = std::move(comm).value();
    fabric_ = std::make_unique<simnet::ThreadFabric>(2);
    engine_ = std::make_unique<engine::MessagingEngine>(*comm_, fabric_->wire(0),
                                                        engine::EngineOptions{});
    for (std::uint32_t p = 0; p < 2; ++p) {
      shm::CommBuffer::EndpointParams params;
      params.type = shm::EndpointType::kSend;
      params.queue_capacity = 2;
      auto index = comm_->AllocateEndpoint(params);
      ASSERT_TRUE(index.ok());
      endpoint_[p] = *index;
    }
  }

  void Release(std::uint32_t p) {
    auto buffer = comm_->AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    shm::MsgView view = comm_->msg(*buffer);
    view.header->set_peer_address(Address(1, 0));
    view.header->state.Store(MsgState::kReady);
    ASSERT_TRUE(comm_->queue(endpoint_[p]).Release(*buffer));
  }
  void Claim(std::uint32_t p) { ASSERT_TRUE(comm_->doorbell_ring().ClaimSlot(&pos_[p])); }
  void Publish(std::uint32_t p) { comm_->doorbell_ring().PublishSlot(pos_[p], endpoint_[p]); }
  void EngineStep() { engine_->Step(); }

  void CheckBothSent(const std::string& schedule) {
    ScopedBoundaryRole role(Writer::kEngine);
    for (int step = 0; step < 4 && (Unsent() > 0 || engine_->HasWork()); ++step) {
      ASSERT_TRUE(engine_->HasWork()) << Unsent() << " unsent, engine idle in " << schedule;
      engine_->Step();
    }
    ASSERT_EQ(Unsent(), 0u) << "send stranded behind the stalled head in " << schedule;
    ASSERT_TRUE(comm_->doorbell_ring().HeadStalled()) << schedule;
    const engine::EngineStats& stats = engine_->stats();
    ASSERT_EQ(stats.messages_sent, 2u) << schedule;
    ASSERT_EQ(stats.backstop_sweeps, stats.doorbell_overflows + stats.sweeps_stalled_head)
        << schedule;
    ASSERT_GE(stats.sweeps_stalled_head, 1u) << schedule;
    ASSERT_FALSE(engine_->HasWork()) << "engine keeps sweeping for swept claims in " << schedule;
    const std::uint64_t sweeps = stats.backstop_sweeps;
    ASSERT_FALSE(engine_->Step()) << schedule;
    ASSERT_EQ(stats.backstop_sweeps, sweeps) << schedule;
  }

 private:
  std::uint32_t Unsent() const {
    std::uint32_t unsent = 0;
    for (const std::uint32_t endpoint : endpoint_) {
      unsent += comm_->queue(endpoint).ProcessableCount();
    }
    return unsent;
  }

  std::unique_ptr<shm::CommBuffer> comm_;
  std::unique_ptr<simnet::ThreadFabric> fabric_;
  std::unique_ptr<engine::MessagingEngine> engine_;
  std::array<std::uint32_t, 2> endpoint_{};
  std::array<std::uint32_t, 2> pos_{};
};

TEST(ModelCheck, StalledProducerDoesNotHoldBackLaterDoorbells) {
  StalledProducerModel model;
  std::vector<Side> sides = {
      {Writer::kApplication, '0', {[&] { model.Release(0); }, [&] { model.Claim(0); }}},
      {Writer::kApplication,
       '1',
       {[&] { model.Release(1); }, [&] { model.Claim(1); }, [&] { model.Publish(1); }}},
      {Writer::kEngine, 'e', {[&] { model.EngineStep(); }}},
  };
  int schedules = 0;
  ForAllInterleavings(
      sides,
      [&](const std::string& schedule) {
        if (schedule.size() == 6) {
          model.CheckBothSent(schedule);
          ++schedules;
        }
      },
      [&] { model.Reset(); });
  EXPECT_EQ(schedules, 60);  // 6! / (2! 3! 1!)
}

// ---- Drop counter: engine drops vs application read-and-reset --------------
//
// Hand-written extra (not generated): the drop counter is a two-location
// counter, not one of the two protocol rings the IR export covers.

TEST(ModelCheck, DropCounterNeverLosesEvents) {
  std::unique_ptr<DropCounter> counter;
  std::uint64_t dropped = 0;
  std::uint64_t reclaimed = 0;

  std::vector<std::function<void()>> engine_ops;
  for (int i = 0; i < 5; ++i) {
    engine_ops.emplace_back([&] {
      counter->RecordDrop();
      ++dropped;
    });
  }
  std::vector<std::function<void()>> app_ops;
  for (int i = 0; i < 4; ++i) {
    app_ops.emplace_back([&] { reclaimed += counter->ReadAndReset(); });
  }

  int schedules = 0;
  ForAllInterleavings(
      app_ops, engine_ops,
      [&](const std::string& schedule) {
        // The defining invariant: nothing lost, nothing double counted.
        ASSERT_EQ(reclaimed + counter->Count(), dropped) << schedule;
        if (schedule.size() == app_ops.size() + engine_ops.size()) {
          ++schedules;
        }
      },
      [&] {
        counter = std::make_unique<DropCounter>();
        dropped = 0;
        reclaimed = 0;
      });
  // C(9,4) = 126 schedules.
  EXPECT_EQ(schedules, 126);
}

// The single-location counter the paper rejects WOULD lose events; the
// checker proves our structure does not even under reset storms.
TEST(ModelCheck, DropCounterResetStorm) {
  std::unique_ptr<DropCounter> counter;
  std::uint64_t dropped = 0;
  std::uint64_t reclaimed = 0;

  std::vector<std::function<void()>> engine_ops;
  for (int i = 0; i < 3; ++i) {
    engine_ops.emplace_back([&] {
      counter->RecordDrop();
      ++dropped;
    });
  }
  std::vector<std::function<void()>> app_ops;
  for (int i = 0; i < 6; ++i) {  // more resets than drops
    app_ops.emplace_back([&] { reclaimed += counter->ReadAndReset(); });
  }

  ForAllInterleavings(
      app_ops, engine_ops,
      [&](const std::string& schedule) {
        ASSERT_EQ(reclaimed + counter->Count(), dropped) << schedule;
      },
      [&] {
        counter = std::make_unique<DropCounter>();
        dropped = 0;
        reclaimed = 0;
      });
}

// ---- Park/wake handshake: an idle runner parks vs a waker --------------------
//
// Hand-written extra: the Dekker pair behind EngineRunner's idle park
// (ParkWakeFlag, src/base/locks.h). The runner announces the park, then
// re-checks for work and sleeps only if the re-check finds none; a waker
// publishes work, then wakes the runner if it sees the announce. In the
// real runner the announce-to-wait span and the waker's wake both hold the
// waker's mutex, so a waker that saw the announce always reaches the
// runner's wait: here a wake is delivered exactly when WakeNeeded() is
// true. A LOST wake is a final state where the runner sleeps and some
// published work was followed by no delivered wake — the runner would
// sleep out a whole park timeout with that work pending.
//
// The waker side runs two publish/wake rounds (an application send and a
// fabric delivery). Mutants of the protocol must lose a wake in some
// schedule, which shows the enumeration can see one.
enum class ParkProtocol {
  kAsBuilt,                // announce, re-check, sleep | publish, wake
  kNoRecheck,              // the runner sleeps without re-checking
  kRecheckBeforeAnnounce,  // the runner checks for work, then announces
  kWakeBeforePublish,      // the waker checks for a parked runner first
};

class ParkWakeModel {
 public:
  explicit ParkWakeModel(ParkProtocol protocol) : protocol_(protocol) {}

  void Reset() {
    flag_ = std::make_unique<ParkWakeFlag>();
    work_ = false;
    saw_work_ = false;
    asleep_ = false;
    unannounced_ = false;
  }

  std::vector<std::function<void()>> RunnerOps() {
    std::vector<std::function<void()>> ops;
    if (protocol_ == ParkProtocol::kRecheckBeforeAnnounce) {
      ops.emplace_back([this] { saw_work_ = work_; });
      ops.emplace_back([this] {
        flag_->AnnouncePark();
        SleepUnlessWork();
      });
    } else {
      ops.emplace_back([this] { flag_->AnnouncePark(); });
      ops.emplace_back([this] {
        saw_work_ = protocol_ != ParkProtocol::kNoRecheck && work_;
        SleepUnlessWork();
      });
    }
    return ops;
  }

  std::vector<std::function<void()>> WakerOps() {
    std::vector<std::function<void()>> ops;
    for (int round = 0; round < 2; ++round) {
      const auto publish = [this] {
        work_ = true;
        unannounced_ = true;
      };
      const auto wake = [this] {
        if (flag_->WakeNeeded()) {
          unannounced_ = false;  // Delivered: the runner leaves its wait.
        }
      };
      if (protocol_ == ParkProtocol::kWakeBeforePublish) {
        ops.emplace_back(wake);
        ops.emplace_back(publish);
      } else {
        ops.emplace_back(publish);
        ops.emplace_back(wake);
      }
    }
    return ops;
  }

  bool LostWake() const { return asleep_ && unannounced_; }

 private:
  void SleepUnlessWork() {
    if (saw_work_) {
      flag_->ClearPark();  // Work found: back to running, no sleep.
    } else {
      asleep_ = true;
    }
  }

  ParkProtocol protocol_;
  std::unique_ptr<ParkWakeFlag> flag_;
  bool work_ = false;      // published by the waker
  bool saw_work_ = false;  // the runner's re-check result
  bool asleep_ = false;    // the runner committed to sleep
  bool unannounced_ = false;  // work published since the last delivered wake
};

// Returns how many of the complete schedules lose a wake.
int LostWakeSchedules(ParkProtocol protocol, int* schedules) {
  ParkWakeModel model(protocol);
  int lost = 0;
  *schedules = 0;
  const auto runner_ops = model.RunnerOps();
  const auto waker_ops = model.WakerOps();
  ForAllInterleavings(
      waker_ops, runner_ops,
      [&](const std::string& schedule) {
        if (schedule.size() == runner_ops.size() + waker_ops.size()) {
          ++*schedules;
          if (model.LostWake()) {
            ++lost;
          }
        }
      },
      [&] { model.Reset(); });
  return lost;
}

TEST(ModelCheck, ParkWakeNeverLosesAWake) {
  int schedules = 0;
  EXPECT_EQ(LostWakeSchedules(ParkProtocol::kAsBuilt, &schedules), 0);
  // C(6,2) = 15 schedules: two runner steps among four waker steps.
  EXPECT_EQ(schedules, 15);
}

TEST(ModelCheck, ParkWakeMutantsLoseWakes) {
  int schedules = 0;
  EXPECT_GT(LostWakeSchedules(ParkProtocol::kNoRecheck, &schedules), 0);
  EXPECT_GT(LostWakeSchedules(ParkProtocol::kRecheckBeforeAnnounce, &schedules), 0);
  EXPECT_GT(LostWakeSchedules(ParkProtocol::kWakeBeforePublish, &schedules), 0);
}

}  // namespace
}  // namespace flipc::waitfree
