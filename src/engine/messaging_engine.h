// The FLIPC messaging engine.
//
// "The messaging engine is an independently executing component of the
// system. It is intended to execute on the programmable controller in the
// communication interface when one is present, but can also be implemented
// as part of the operating system kernel for debugging purposes or on
// systems lacking the required hardware."
//
// This class is that component. It touches exactly two things: the
// communication buffer (through the wait-free queue views — the engine-side
// operations are PeekProcess/AdvanceProcess and the engine-written counter
// cells) and a Wire into the fabric. It never blocks on the application; an
// ill-behaved application can at worst make its own endpoints useless.
//
// Execution model: the engine body is a non-preemptible event loop
// (matching the paper's controller "execution restrictions"), decomposed
// into bounded work units. Each unit is either delivering one inbound
// packet or transmitting one released send buffer:
//
//   * real-concurrency mode — a host thread calls Step() in a loop;
//   * simulation mode       — a driver calls PlanStep() to learn the unit's
//     modeled cost, advances virtual time, then CommitStep() to perform it,
//     so packets enter the fabric at the correct virtual instant.
//
// The engine hosts a protocol framework: FLIPC's optimistic protocol is
// built in, and further protocols (KKT, a kernel-IPC stand-in for the
// OSF/1 AD traffic the paper's engine coexisted with) register by id.
#ifndef SRC_ENGINE_MESSAGING_ENGINE_H_
#define SRC_ENGINE_MESSAGING_ENGINE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/clock.h"
#include "src/base/hotpath.h"
#include "src/base/stats.h"
#include "src/base/trace.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/engine/platform_model.h"
#include "src/shm/address.h"
#include "src/shm/comm_buffer.h"
#include "src/simnet/fabric.h"
#include "src/simnet/packet.h"
#include "src/simos/semaphore_table.h"

namespace flipc::engine {

struct EngineOptions {
  // Validity checks "that protect the messaging engine against corruption
  // of the communication buffer by an errant or malicious application".
  // The paper measures them at +2 us per one-way message.
  bool validity_checks = false;

  // Experiment E4: model the pre-tuning communication-buffer layout where
  // application-written and engine-written words shared cache lines. The
  // real data structures stay padded (and correct); this charges the
  // modeled invalidation cost.
  bool model_unpadded_layout = false;

  // Maximum sends coalesced into one work unit; messages after the first
  // must share the first's destination node and come from distinct
  // endpoints (one message per endpoint per unit keeps round-robin
  // fairness). 1 disables batching.
  std::uint32_t transmit_batch = 8;

  // ---- QoS planner (DESIGN.md §15) ----
  // Per-class service weights for the deficit-weighted class selection
  // over the active list. When several classes stay backlogged, each
  // class's long-run share of transmissions is proportional to its weight;
  // when only one class has ready work the credits are untouched, so
  // all-default assemblies (every endpoint in class 0) keep the exact
  // round-robin rotation. A zero weight still earns selection eventually
  // (credits never decrease below the clamp), so no class can starve.
  std::array<std::uint32_t, shm::kQosClassCount> qos_weights{1, 1, 1, 1};
};

struct EngineStats {
  std::uint64_t work_units = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t drops_no_buffer = 0;    // optimistic-protocol discards
  std::uint64_t drops_bad_address = 0;  // invalid/inactive/mistyped destination
  std::uint64_t validity_rejections = 0;
  // Future-work protection mechanism: sends rejected because the endpoint
  // is restricted to a different destination. Always enforced (protection
  // of other applications cannot be an optional check).
  std::uint64_t protection_rejections = 0;
  std::uint64_t unknown_protocol_packets = 0;
  std::uint64_t semaphore_signals = 0;
  // ---- Doorbell-scheduling observability ----
  std::uint64_t doorbells_consumed = 0;   // ring entries popped
  std::uint64_t doorbell_dups = 0;        // popped for an already-active endpoint
  std::uint64_t doorbell_overflows = 0;   // overflow signals answered with a sweep
  std::uint64_t sweeps_stalled_head = 0;  // sweeps for doorbells behind an unpublished head
  std::uint64_t backstop_sweeps = 0;      // full sweeps; == doorbell_overflows +
                                          //   sweeps_stalled_head
  std::uint64_t endpoints_visited = 0;    // endpoints examined while planning sends;
                                          // the deterministic scan-effort metric
  std::uint64_t transmit_batches = 0;     // outbound work units committed
  std::uint64_t batched_messages = 0;     // messages carried by those units
  // ---- Engine-loop flight-recorder counters ----
  std::uint64_t outbound_plans = 0;       // PlanOutboundBatch invocations
  // ---- Crash recovery ----
  std::uint64_t recoveries = 0;           // RecoverFromBuffer invocations
  std::uint64_t recovered_active = 0;     // endpoints re-activated by recovery sweeps

  // Sums `other` into this (per-engine stats -> an aggregate over runs or
  // engines). The counter identities (backstop_sweeps ==
  // doorbell_overflows + sweeps_stalled_head; batched_messages vs
  // transmit_batches) are linear, so they hold for the aggregate exactly
  // when they hold for each part.
  void Add(const EngineStats& other) {
    work_units += other.work_units;
    messages_sent += other.messages_sent;
    bytes_sent += other.bytes_sent;
    messages_delivered += other.messages_delivered;
    drops_no_buffer += other.drops_no_buffer;
    drops_bad_address += other.drops_bad_address;
    validity_rejections += other.validity_rejections;
    protection_rejections += other.protection_rejections;
    unknown_protocol_packets += other.unknown_protocol_packets;
    semaphore_signals += other.semaphore_signals;
    doorbells_consumed += other.doorbells_consumed;
    doorbell_dups += other.doorbell_dups;
    doorbell_overflows += other.doorbell_overflows;
    sweeps_stalled_head += other.sweeps_stalled_head;
    backstop_sweeps += other.backstop_sweeps;
    endpoints_visited += other.endpoints_visited;
    transmit_batches += other.transmit_batches;
    batched_messages += other.batched_messages;
    outbound_plans += other.outbound_plans;
    recoveries += other.recoveries;
    recovered_active += other.recovered_active;
  }
};

// Engine-loop latency telemetry. Host-memory (the histograms are
// heap-backed), so it lives beside the engine, not in the comm buffer;
// attach via SetTelemetry. Recording is pure stores into preallocated
// buckets, so it is hot-path legal once constructed.
struct EngineTelemetry {
  // Modeled cost of each committed work unit (plan-time price), ns.
  Histogram plan_cost_ns{0.0, 100000.0, 128};
  // Messages coalesced into each outbound work unit.
  Histogram batch_size{0.0, 65.0, 65};
};

// A protocol sharing the engine's event loop (the Paragon message
// coprocessor ran FLIPC alongside the OSF/1 AD protocols in one framework).
class ProtocolHandler {
 public:
  virtual ~ProtocolHandler() = default;

  // An inbound packet with this handler's protocol id.
  virtual void HandlePacket(simnet::Packet packet, simnet::CostAccumulator& cost) = 0;

  // Performs at most one unit of outbound work; returns whether any was done.
  virtual bool PollWork(simnet::CostAccumulator& cost) = 0;

  virtual bool HasWork() const { return false; }

  // Modeled cost of handling `packet`, priced at plan time so the work
  // unit's effects land at the right virtual instant.
  virtual DurationNs PlanCost(const simnet::Packet& packet) const {
    (void)packet;
    return 0;
  }
};

class MessagingEngine {
 public:
  // `model` may be null (real-concurrency mode: no cost accounting).
  // `semaphores` may be null if no endpoint uses the semaphore option.
  MessagingEngine(shm::CommBuffer& comm, simnet::Wire& wire, EngineOptions options,
                  const PlatformModel* model = nullptr,
                  simos::SemaphoreTable* semaphores = nullptr);
  virtual ~MessagingEngine() = default;
  MessagingEngine(const MessagingEngine&) = delete;
  MessagingEngine& operator=(const MessagingEngine&) = delete;

  // ---- Protocol framework ----
  Status RegisterProtocol(std::uint32_t protocol_id, ProtocolHandler* handler);

  // ---- Event loop ----

  // Examines state and selects the next work unit; returns its modeled cost
  // (0 when there is nothing to do). Idempotent until CommitStep().
  FLIPC_ROLE_ENGINE DurationNs PlanStep();

  // Executes the planned work unit (plans one first if none is pending).
  // Returns whether any work was performed: an outbound unit whose first
  // message the wire back-pressured performed none.
  FLIPC_ROLE_ENGINE bool CommitStep();

  // Plan + commit in one call; used by the real-concurrency runner. Plans
  // exactly once: returns false without committing when nothing was
  // planned.
  FLIPC_ROLE_ENGINE bool Step();

  // ---- Crash recovery (DESIGN.md §14) ----

  // Rebuilds the engine's scheduling state purely from the authoritative
  // queue cursors of a communication buffer abandoned by a dead engine:
  // clears any half-planned work unit and re-activates every send endpoint
  // with processable work. The doorbell ring is left as it is: doorbells
  // the dead engine did not pop are popped later as harmless duplicates
  // (fast-forwarding the consume cursor would let a producer that claimed
  // before it publish over a later lap). Must run while NO other
  // engine-side actor touches the comm buffer (the quiescent role) —
  // typically on a freshly constructed engine before its runner starts.
  // The sweep here is not a backstop sweep (it does not count toward
  // backstop_sweeps, preserving the sweep-cause identity); it increments
  // stats_.recoveries instead.
  FLIPC_ROLE_QUIESCENT void RecoverFromBuffer();

  // Whether a Step() could find work: exactly what a plan acts on, in
  // O(active) time — a planned unit, an inbound packet, a published
  // doorbell, either sweep trigger, a ready endpoint on the active list, or
  // protocol-handler work. Stays true while send work waits on a wire that
  // cannot report a full ring ahead of the send, so a runner spins (never
  // parks) until the destination engine frees ring space.
  bool HasWork() const;

  // Optional flight recorder; events are stamped with the engine's clock
  // (virtual under the DES, zero without a clock). Single-writer: only the
  // engine's own loop records here.
  void SetTrace(TraceRing* trace) { trace_ = trace; }

  // Optional latency histograms, caller-owned; null (the default) keeps the
  // commit path free of even the branch-plus-stores cost.
  void SetTelemetry(EngineTelemetry* telemetry) { telemetry_ = telemetry; }

  // Clock used by the capacity-control (rate-limit) extension; without a
  // clock, token-bucket / deadline configurations are ignored. The
  // SimCluster wires the simulator's virtual clock, Cluster wires the real
  // one.
  void SetClock(const Clock* clock) { clock_ = clock; }
  const Clock* clock() const { return clock_; }

  // Earliest virtual/real time at which a currently throttled send
  // endpoint becomes eligible again; kTimeNever when nothing is throttled.
  // Simulation drivers use this to schedule their next wake-up.
  TimeNs NextUnthrottleTime() const;

  // Modeled cost accumulated by protocol handlers during CommitStep()
  // (their costs are only known as they run, unlike the built-in FLIPC
  // paths which are priced at plan time). The simulation driver drains this
  // after each commit and extends the coprocessor's busy window.
  DurationNs TakeDeferredCost() {
    const DurationNs cost = deferred_cost_;
    deferred_cost_ = 0;
    return cost;
  }

  // ---- Observation hooks (simulation drivers / tests) ----

  // Fired when the engine finishes a receive attempt on an endpoint
  // (delivered == false means the optimistic protocol discarded the
  // message for lack of a posted buffer). A delivered message is copied
  // but not yet acquirable: the hook runs before the release that hands
  // it to the application, so a hook that needs the message must defer its
  // work (the simulation drivers schedule it).
  void SetReceiveHook(std::function<void(std::uint32_t endpoint, bool delivered)> hook) {
    receive_hook_ = std::move(hook);
  }

  // Fired once per processed send. A transmitted send fires it just
  // before the engine hands the packet to the wire, so it precedes
  // anything the destination can observe, but also the completion: the
  // buffer is not yet re-acquirable, and a hook that needs it must defer
  // its work (the simulation drivers schedule it). A rejected send fires it
  // after its completion. Exactly once assumes a wire that reports a full
  // ring through BackPressured; one that hides it (a decorator not
  // forwarding it) can refuse after the hook, and the retry fires it again.
  void SetSendCompleteHook(std::function<void(std::uint32_t endpoint)> hook) {
    send_complete_hook_ = std::move(hook);
  }

  const EngineStats& stats() const { return stats_; }
  NodeId node() const { return wire_.node(); }

  // Resources shared with registered protocol handlers: the coprocessor's
  // wire and (in simulation) the cost model. Handlers transmit their own
  // packets through the same interface FLIPC traffic uses.
  simnet::Wire& wire_for_protocols() { return wire_; }
  const PlatformModel* model_for_protocols() const { return model_; }

  shm::CommBuffer& comm() { return comm_; }
  const EngineOptions& options() const { return options_; }

 protected:
  // What a transmission strategy did with the head message.
  enum class TransmitOutcome {
    kBackPressured,  // The wire had no room: nothing changed; retry later.
    kComplete,       // Sent (or discarded); complete the send now.
    kDeferred,       // Sent; the strategy completes the send later.
  };

  // Transmission strategy; the native engine sends one optimistic packet
  // and completes immediately. The KKT engine overrides this (RPC per
  // message, deferred completion). The caller accounts the transmission
  // and, for kComplete, completes the send.
  virtual TransmitOutcome TransmitMessage(std::uint32_t endpoint_index,
                                          waitfree::BufferIndex buffer, Address src,
                                          Address dst, simnet::CostAccumulator& cost);

  // True when the endpoint must not transmit now (KKT: RPC in flight).
  virtual bool EndpointBlocked(std::uint32_t endpoint_index) const;

  // Extra plan-time cost of this engine's transmission strategy (KKT: the
  // RPC marshal + kernel send path).
  virtual DurationNs TransmitPlanCost() const { return 0; }

  // Marks the head send buffer of `endpoint_index` complete and advances
  // the process cursor; signals the endpoint semaphore if configured.
  void CompleteSend(std::uint32_t endpoint_index);

  // Delivers a FLIPC message payload to a local receive endpoint, applying
  // the optimistic protocol's discard rule. Used by the native inbound path
  // and by the KKT request handler.
  void DeliverLocal(const simnet::Packet& packet, simnet::CostAccumulator& cost);

  simnet::Wire& wire() { return wire_; }
  const PlatformModel* model() const { return model_; }

  void ChargeModel(simnet::CostAccumulator& cost, DurationNs ns) {
    if (model_ != nullptr) {
      cost.Charge(ns);
    }
  }

  EngineStats stats_;

 private:
  enum class WorkKind { kNone, kInbound, kOutbound, kHandler };

  // ---- Doorbell scheduling (engine-private state) ----

  // Fills planned_batch_ with up to transmit_batch ready same-destination
  // endpoints: sweeps if the ring signals a doorbell it cannot hand over,
  // drains the ring, and rotates the active list.
  void PlanOutboundBatch();

  // Pops published doorbells into the active list.
  void DrainDoorbells();

  // Adds `endpoint` to the active list unless already a member.
  void ActivateEndpoint(std::uint32_t endpoint);

  // Sweep trigger (b): the ring's head position is claimed but not yet
  // published, and producers have claimed past the last sweep. Doorbells
  // behind the stalled head cannot be popped; a sweep covers their sends.
  bool StalledHeadUnswept(const waitfree::DoorbellRingView& ring) const {
    return ring.HeadStalled() && ring.ClaimedTail() != swept_tail_;
  }

  // Activates every send endpoint with processable work and returns how
  // many it activated. O(configured endpoints). Records the ring's claim
  // position first: every send released before a claim below it is
  // covered.
  std::uint64_t ActivateAllProcessable();

  // A backstop sweep: ActivateAllProcessable, counted in backstop_sweeps.
  // Runs only when the ring signals it (an overflow, or trigger (b)).
  void SweepAllEndpoints();

  // One rotation over the active list selecting the batch; returns whether
  // anything was selected. Drained endpoints leave the list; blocked or
  // throttled ones rotate to the back.
  bool SelectBatchFromActive();

  // The clock, read at most once and only when first asked: an idle plan
  // or an unthrottled, already-stamped endpoint never reads it.
  class LazyNow {
   public:
    explicit LazyNow(const Clock* clock) : clock_(clock) {}
    TimeNs Get() {
      if (!read_) {
        now_ = clock_ != nullptr ? clock_->NowNs() : 0;
        read_ = true;
      }
      return now_;
    }

   private:
    const Clock* clock_;
    TimeNs now_ = 0;
    bool read_ = false;
  };

  // True when `endpoint` is a send endpoint with processable work that is
  // not blocked (KKT in-flight), throttled (rate limit) or back-pressured.
  bool SendReady(std::uint32_t endpoint, LazyNow& now) const;

  // True when the wire would refuse the endpoint's head message right now:
  // its destination ring is full. Such a head stays queued but is not work
  // (not planned, not in HasWork, not counted) until the consumer drains
  // the ring, and that drain wakes this engine (ThreadFabric).
  bool HeadBackPressured(std::uint32_t endpoint) const;

  // Runs the send-complete hook, if one is set.
  void ObserveSend(std::uint32_t endpoint_index);

  // Consumes the head send of `endpoint_index` without transmitting it:
  // counts the reject, completes the send and fires the send hook.
  void RejectSend(std::uint32_t endpoint_index, shm::TelemetryBlock& telemetry);

  TimeNs NowForThrottle() const {
    return clock_ != nullptr ? clock_->NowNs() : 0;
  }

  // ---- QoS planner helpers (engine-private state; DESIGN.md §15) ----

  // True when the endpoint's token bucket forbids transmitting at `now`.
  // Pure read: a slot whose alloc_generation differs from the engine's copy
  // is never throttled (its recorded state belongs to the previous tenant).
  // Reads the clock only when a bucket is configured.
  bool Throttled(std::uint32_t endpoint, const shm::EndpointRecord& record,
                 LazyNow& now) const;

  // Tokens the endpoint's bucket would hold at `now`, counting accrued
  // refills without mutating the bucket state.
  std::uint32_t BucketTokensAt(std::uint32_t endpoint, const shm::EndpointRecord& record,
                               TimeNs now) const;

  // Folds accrued refills into the bucket state (called on the commit path
  // before a token is consumed). A full bucket accrues nothing: its refill
  // origin moves to `now`, so the next token lands one refill after the
  // spend that follows.
  void RefillBucket(std::uint32_t endpoint, const shm::EndpointRecord& record, TimeNs now);

  // Detects slot reuse via EndpointRecord.alloc_generation and resets the
  // engine-private bucket/head-tracking state for the new tenant. The
  // churn bugfix: without this, a fresh endpoint inherited the previous
  // tenant's empty bucket.
  void SyncSlotState(std::uint32_t endpoint);

  // Stamps when the endpoint's current head message was first observed
  // (process_count changed); the base for EDF deadlines, deadline-miss
  // accounting and the service-gap telemetry. Reads the clock only when the
  // stamp changes.
  void NoteHeadObserved(std::uint32_t endpoint, LazyNow& now);

  // The endpoint's class, clamped to [0, kQosClassCount).
  static std::uint32_t QosClassOf(const shm::EndpointRecord& record) {
    const std::uint32_t cls = record.qos_class.ReadRelaxed();
    return cls < shm::kQosClassCount ? cls : shm::kQosClassCount - 1;
  }

  // Absolute deadline of the endpoint's head message (head-observed stamp
  // plus the configured relative deadline).
  TimeNs HeadDeadline(std::uint32_t endpoint, const shm::EndpointRecord& record) const {
    return head_seen_at_[endpoint] +
           static_cast<TimeNs>(record.deadline_ns.ReadRelaxed());
  }

  // Validity checks on an application-released send buffer. Returns true
  // if the message may be transmitted.
  bool ValidateSendBuffer(std::uint32_t endpoint_index, waitfree::BufferIndex buffer);

  // Commits the planned batch up to its first back-pressured message;
  // returns whether any message was carried (sent or rejected).
  bool CommitOutbound(simnet::CostAccumulator& cost);

  // Transmits the head message of one endpoint of the planned batch
  // (validity, protection and rate-limit checks included). Returns false
  // when the wire back-pressured it: the message stays at its queue head
  // and no transmission is counted.
  bool CommitOutboundOne(std::uint32_t endpoint_index, simnet::CostAccumulator& cost);

  shm::CommBuffer& comm_;
  simnet::Wire& wire_;
  EngineOptions options_;
  const PlatformModel* model_;
  simos::SemaphoreTable* semaphores_;
  const Clock* clock_ = nullptr;
  TraceRing* trace_ = nullptr;
  EngineTelemetry* telemetry_ = nullptr;

  void Trace(TraceEvent event, std::uint32_t a = 0, std::uint64_t b = 0) {
    if (trace_ != nullptr) {
      trace_->Record(clock_ != nullptr ? clock_->NowNs() : 0, event, a, b);
    }
  }

  // ---- QoS planner state (engine-private; DESIGN.md §15) ----
  // Last EndpointRecord.alloc_generation observed per slot; 0 = never seen
  // (AllocateEndpoint skips generation 0). A mismatch marks slot reuse.
  std::vector<std::uint32_t> seen_generation_;
  // Token-bucket state: current tokens and the accrual origin of the next
  // refill. Sized at construction, one entry per endpoint slot.
  std::vector<std::uint32_t> bucket_tokens_;
  std::vector<TimeNs> bucket_refill_at_;
  // Head-message observation: the process_count value the stamp below was
  // taken at (kNoHeadSeen = stamp invalid) and when it was taken.
  static constexpr std::uint32_t kNoHeadSeen = 0xffffffffu;
  std::vector<std::uint32_t> head_seen_count_;
  std::vector<TimeNs> head_seen_at_;
  // Deficit-weighted class selection: per-class credit. Backlogged classes
  // earn their weight per plan, the serving class pays one unit per
  // selected message; clamped so a long monopoly cannot bank unbounded
  // credit (or debt).
  static constexpr std::int64_t kQosCreditClamp = 1 << 20;
  std::array<std::int64_t, shm::kQosClassCount> class_credit_{};
  // The planned batch's credit terms, paid per message carried at commit
  // (ChargeClassCredit), so a message the wire refuses pays nothing.
  struct CreditCharge {
    bool competing = false;
    std::uint32_t serve_class = 0;
    std::int64_t ready_weight = 0;
    std::array<bool, shm::kQosClassCount> class_ready{};
  };
  CreditCharge planned_charge_;
  void ChargeClassCredit();
  // Selection scratch (capacity reserved at construction; the plan path
  // must never allocate): pass-1 ready candidates in rotation order and
  // the taken flag per scratch position.
  std::vector<std::uint32_t> scratch_ready_;
  std::vector<char> scratch_taken_;

  static constexpr std::uint32_t kMaxProtocols = 8;
  std::array<ProtocolHandler*, kMaxProtocols> handlers_{};

  // Planned work unit. An inbound unit's packet is polled straight into
  // planned_packet_ (valid while planned_ == kInbound).
  WorkKind planned_ = WorkKind::kNone;
  simnet::Packet planned_packet_;
  std::uint32_t planned_handler_ = 0;
  DurationNs planned_cost_ = 0;

  std::uint64_t send_seq_ = 0;

  // Fixed-capacity FIFO of endpoint indices. Replaces std::deque so the
  // engine's plan path never allocates (a deque grows on push_back — a
  // hot-path guard violation and a latency hazard). Membership is deduped
  // by in_active_, so at most max_endpoints entries ever coexist; storage
  // is sized once at construction and never reallocated. A push beyond
  // capacity cannot happen under the dedup invariant; the guard keeps a
  // broken invariant from overwriting the front.
  class ActiveList {
   public:
    explicit ActiveList(std::uint32_t max_entries) : slots_(max_entries + 1) {}

    bool empty() const { return head_ == tail_; }
    std::size_t size() const {
      const std::size_t n = slots_.size();
      return (tail_ + n - head_) % n;
    }
    std::uint32_t front() const { return slots_[head_]; }
    void pop_front() { head_ = Next(head_); }
    void push_back(std::uint32_t endpoint) {
      const std::size_t next = Next(tail_);
      if (next == head_) {
        return;  // Unreachable: membership is deduplicated.
      }
      slots_[tail_] = endpoint;
      tail_ = next;
    }
    // i-th entry from the front (0 <= i < size()); for HasWork's scan.
    std::uint32_t at(std::size_t i) const {
      return slots_[(head_ + i) % slots_.size()];
    }

   private:
    std::size_t Next(std::size_t pos) const { return (pos + 1) % slots_.size(); }

    std::vector<std::uint32_t> slots_;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
  };

  // Doorbell-scheduling state (engine-private; the shared ring lives in
  // the communication buffer). active_ holds endpoints believed to have
  // send work, FIFO for round-robin fairness; in_active_ is its membership
  // flag per endpoint (covers active_ AND planned_batch_).
  ActiveList active_;
  std::vector<char> in_active_;
  std::vector<std::uint32_t> planned_batch_;
  // The ring's claim position at the last sweep (ActivateAllProcessable):
  // every claim below it is covered, so trigger (b) fires again only once
  // producers claim past it. Starts at the consume position found at
  // construction, so a head already stalled then is swept once.
  std::uint32_t swept_tail_;

  std::function<void(std::uint32_t, bool)> receive_hook_;
  std::function<void(std::uint32_t)> send_complete_hook_;
  DurationNs deferred_cost_ = 0;
};

}  // namespace flipc::engine

#endif  // SRC_ENGINE_MESSAGING_ENGINE_H_
