#include "src/engine/messaging_engine.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/base/hotpath.h"
#include "src/base/log.h"
#include "src/waitfree/msg_state.h"

namespace flipc::engine {

using shm::EndpointRecord;
using shm::EndpointType;
using waitfree::BufferIndex;
using waitfree::MsgState;

MessagingEngine::MessagingEngine(shm::CommBuffer& comm, simnet::Wire& wire,
                                 EngineOptions options, const PlatformModel* model,
                                 simos::SemaphoreTable* semaphores)
    : comm_(comm),
      wire_(wire),
      options_(options),
      model_(model),
      semaphores_(semaphores),
      seen_generation_(comm.max_endpoints(), 0),
      bucket_tokens_(comm.max_endpoints(), 0),
      bucket_refill_at_(comm.max_endpoints(), 0),
      head_seen_count_(comm.max_endpoints(), kNoHeadSeen),
      head_seen_at_(comm.max_endpoints(), 0),
      scratch_taken_(comm.max_endpoints(), 0),
      active_(comm.max_endpoints()),
      in_active_(comm.max_endpoints(), 0),
      swept_tail_(comm.doorbell_ring().Head()) {
  // Batch + selection storage is sized here, once: the plan path must
  // never allocate.
  planned_batch_.reserve(options_.transmit_batch < 1 ? 1 : options_.transmit_batch);
  scratch_ready_.reserve(comm.max_endpoints());
}

Status MessagingEngine::RegisterProtocol(std::uint32_t protocol_id, ProtocolHandler* handler) {
  if (protocol_id == simnet::kProtocolFlipc || protocol_id >= kMaxProtocols) {
    return InvalidArgumentStatus();
  }
  if (handlers_[protocol_id] != nullptr && handler != nullptr) {
    return FailedPreconditionStatus();
  }
  handlers_[protocol_id] = handler;
  return OkStatus();
}

bool MessagingEngine::EndpointBlocked(std::uint32_t) const { return false; }

bool MessagingEngine::SendReady(std::uint32_t endpoint, LazyNow& now) const {
  const EndpointRecord& record = comm_.endpoint(endpoint);
  if (record.Type() != EndpointType::kSend || EndpointBlocked(endpoint)) {
    return false;
  }
  if (const_cast<shm::CommBuffer&>(comm_).queue(endpoint).ProcessableCount() == 0) {
    return false;
  }
  return !Throttled(endpoint, record, now) && !HeadBackPressured(endpoint);
}

bool MessagingEngine::HeadBackPressured(std::uint32_t endpoint) const {
  const BufferIndex buffer = comm_.queue(endpoint).PeekProcess();
  if (buffer == waitfree::kInvalidBuffer || !comm_.IsValidBufferIndex(buffer)) {
    return false;  // No destination: the commit rejects it without the wire.
  }
  return wire_.BackPressured(comm_.msg(buffer).header->peer_address().node());
}

bool MessagingEngine::Throttled(std::uint32_t endpoint, const EndpointRecord& record,
                                LazyNow& now) const {
  if (clock_ == nullptr) {
    return false;  // No clock: every capacity-control configuration is inert.
  }
  if (record.alloc_generation.ReadRelaxed() != seen_generation_[endpoint]) {
    // Slot reused since the throttle state was written: it belongs to the
    // previous tenant and must not gate the new one. The mutating paths
    // call SyncSlotState to reset it; this read-only guard covers the
    // const paths (HasWork, NextUnthrottleTime) in between.
    return false;
  }
  return record.bucket_capacity.ReadRelaxed() != 0 &&
         BucketTokensAt(endpoint, record, now.Get()) == 0;
}

std::uint32_t MessagingEngine::BucketTokensAt(std::uint32_t endpoint,
                                              const EndpointRecord& record,
                                              TimeNs now) const {
  const std::uint32_t capacity = record.bucket_capacity.ReadRelaxed();
  const std::uint32_t refill = record.bucket_refill_ns.ReadRelaxed();
  std::uint64_t tokens = bucket_tokens_[endpoint];
  if (refill != 0 && now > bucket_refill_at_[endpoint]) {
    tokens += static_cast<std::uint64_t>(now - bucket_refill_at_[endpoint]) / refill;
  }
  return tokens > capacity ? capacity : static_cast<std::uint32_t>(tokens);
}

void MessagingEngine::RefillBucket(std::uint32_t endpoint, const EndpointRecord& record,
                                   TimeNs now) {
  const std::uint32_t capacity = record.bucket_capacity.ReadRelaxed();
  const std::uint32_t refill = record.bucket_refill_ns.ReadRelaxed();
  if (bucket_tokens_[endpoint] >= capacity) {
    // Full: nothing accrues, so the token about to be spent returns one
    // refill after this spend. An origin left at an earlier instant (the
    // seed taken when the slot was first seen) would return it early.
    bucket_refill_at_[endpoint] = now;
    return;
  }
  if (refill == 0 || now <= bucket_refill_at_[endpoint]) {
    return;  // refill == 0: hard burst cap, tokens never come back.
  }
  const std::uint64_t earned =
      static_cast<std::uint64_t>(now - bucket_refill_at_[endpoint]) / refill;
  if (earned == 0) {
    return;
  }
  const std::uint64_t total = bucket_tokens_[endpoint] + earned;
  if (total >= capacity) {
    bucket_tokens_[endpoint] = capacity;
    bucket_refill_at_[endpoint] = now;  // Full: accrual restarts at the next spend.
  } else {
    bucket_tokens_[endpoint] = static_cast<std::uint32_t>(total);
    // Keep the fractional remainder: the next token lands refill ns after
    // the last WHOLE token accrued, not after this observation.
    bucket_refill_at_[endpoint] += static_cast<TimeNs>(earned * refill);
  }
}

void MessagingEngine::SyncSlotState(std::uint32_t endpoint) {
  const EndpointRecord& record = comm_.endpoint(endpoint);
  const std::uint32_t generation = record.alloc_generation.ReadRelaxed();
  if (generation == seen_generation_[endpoint]) {
    return;
  }
  // Slot (re)allocated since last seen: the previous tenant's bucket
  // level and head-observation stamp must not leak into the new endpoint
  // (the stale-throttle churn bug).
  seen_generation_[endpoint] = generation;
  bucket_tokens_[endpoint] = record.bucket_capacity.ReadRelaxed();  // Fresh bucket: full burst.
  bucket_refill_at_[endpoint] = NowForThrottle();
  head_seen_count_[endpoint] = kNoHeadSeen;
  head_seen_at_[endpoint] = 0;
}

void MessagingEngine::NoteHeadObserved(std::uint32_t endpoint, LazyNow& now) {
  const std::uint32_t processed = comm_.endpoint(endpoint).process_count.ReadRelaxed();
  if (head_seen_count_[endpoint] != processed) {
    head_seen_count_[endpoint] = processed;
    head_seen_at_[endpoint] = now.Get();
  }
}

TimeNs MessagingEngine::NextUnthrottleTime() const {
  if (clock_ == nullptr) {
    return kTimeNever;
  }
  LazyNow now(clock_);
  TimeNs earliest = kTimeNever;
  for (std::uint32_t i = 0; i < comm_.max_endpoints(); ++i) {
    const EndpointRecord& record = comm_.endpoint(i);
    if (record.Type() != EndpointType::kSend || EndpointBlocked(i)) {
      continue;
    }
    if (const_cast<shm::CommBuffer&>(comm_).queue(i).ProcessableCount() == 0) {
      continue;
    }
    if (!Throttled(i, record, now)) {
      continue;
    }
    // Throttled means the bucket is empty: eligible when the next token lands.
    const std::uint32_t refill = record.bucket_refill_ns.ReadRelaxed();
    if (refill == 0) {
      continue;  // Tokens never refill: no future instant unthrottles it.
    }
    const TimeNs next_token = bucket_refill_at_[i] + refill;
    if (next_token < earliest) {
      earliest = next_token;
    }
  }
  return earliest;
}

void MessagingEngine::ActivateEndpoint(std::uint32_t endpoint) {
  SyncSlotState(endpoint);
  if (in_active_[endpoint] != 0) {
    return;  // Already in active_ or in the planned batch.
  }
  in_active_[endpoint] = 1;
  active_.push_back(endpoint);
}

void MessagingEngine::DrainDoorbells() {
  waitfree::DoorbellRingView ring = comm_.doorbell_ring();
  const std::uint32_t batch = options_.transmit_batch < 1 ? 1 : options_.transmit_batch;
  // Bounded drain keeps the plan a bounded work unit; leftover doorbells
  // stay published for the next plan.
  std::uint32_t budget = 4 * batch > 16 ? 4 * batch : 16;
  while (budget-- > 0) {
    const std::uint32_t endpoint = ring.Pop();
    if (endpoint == waitfree::kInvalidDoorbell) {
      break;
    }
    ++stats_.doorbells_consumed;
    if (!comm_.IsValidEndpointIndex(endpoint)) {
      // Corrupt hint from the application side; ignore. The range check
      // matters: activating an index past the endpoint table would make
      // CommitOutboundOne read and write outside it.
      continue;
    }
    if (in_active_[endpoint] != 0) {
      ++stats_.doorbell_dups;
      continue;
    }
    ActivateEndpoint(endpoint);
  }
}

std::uint64_t MessagingEngine::ActivateAllProcessable() {
  swept_tail_ = comm_.doorbell_ring().ClaimedTail();
  stats_.endpoints_visited += comm_.max_endpoints();
  std::uint64_t activated = 0;
  FLIPC_BOUNDED_BY(comm_.max_endpoints());
  for (std::uint32_t i = 0; i < comm_.max_endpoints(); ++i) {
    if (comm_.endpoint(i).Type() != EndpointType::kSend) {
      continue;
    }
    // Processable (not SendReady): throttled and blocked endpoints belong
    // in the active list too, so the rotation — and NextUnthrottleTime —
    // keeps tracking them.
    if (comm_.queue(i).ProcessableCount() == 0) {
      continue;
    }
    ActivateEndpoint(i);
    ++activated;
  }
  return activated;
}

void MessagingEngine::SweepAllEndpoints() {
  ++stats_.backstop_sweeps;
  ActivateAllProcessable();
}

bool MessagingEngine::SelectBatchFromActive() {
  LazyNow now(clock_);
  const std::uint32_t batch_limit = options_.transmit_batch < 1 ? 1 : options_.transmit_batch;

  // ---- Pass 1: one rotation over the active list classifies every entry.
  // Drained entries are forgotten, blocked and throttled ones rotate to
  // the back, ready ones land in scratch_ready_ in rotation order. Each
  // endpoint that was in the list at entry is examined at most once;
  // rotated entries land behind the sentinel count.
  scratch_ready_.clear();
  std::array<bool, shm::kQosClassCount> class_ready{};
  std::uint32_t ready_classes = 0;
  std::size_t rotations = active_.size();
  while (rotations-- > 0) {
    const std::uint32_t endpoint = active_.front();
    active_.pop_front();
    ++stats_.endpoints_visited;
    SyncSlotState(endpoint);

    const EndpointRecord& record = comm_.endpoint(endpoint);
    if (record.Type() != EndpointType::kSend ||
        comm_.queue(endpoint).ProcessableCount() == 0) {
      in_active_[endpoint] = 0;  // Drained or freed: forget the hint.
      continue;
    }
    // Stamp when this head message was first seen backlogged; EDF ordering
    // and the service-gap / deadline-miss telemetry measure from here.
    NoteHeadObserved(endpoint, now);
    if (EndpointBlocked(endpoint)) {
      active_.push_back(endpoint);  // Blocked: rotate to the back.
      continue;
    }
    if (Throttled(endpoint, record, now)) {
      // Ready work deferred by capacity control; NextUnthrottleTime keeps
      // tracking it through the rotation.
      comm_.telemetry(endpoint).RecordThrottleDeferral();
      active_.push_back(endpoint);
      continue;
    }
    if (HeadBackPressured(endpoint)) {
      active_.push_back(endpoint);  // Destination ring full: wait for its drain.
      continue;
    }
    scratch_taken_[endpoint] = 0;
    scratch_ready_.push_back(endpoint);  // Capacity reserved at construction.
    const std::uint32_t cls = QosClassOf(record);
    if (!class_ready[cls]) {
      class_ready[cls] = true;
      ++ready_classes;
    }
  }
  if (scratch_ready_.empty()) {
    return false;
  }

  // ---- Class selection: deficit-weighted. Credits move only when classes
  // actually compete (>= 2 ready). The plan serves the class holding the
  // most credit; then, per message carried (ChargeClassCredit, at commit),
  // EVERY ready class earns its weight while the served class pays the
  // total ready weight — earnings and payments balance per message, so
  // over a contended interval each class's share of transmissions
  // converges to its weight fraction. A single ready class is served as-is
  // with credits untouched, which keeps all-default configurations (every
  // endpoint in class 0) exactly on the plain round-robin rotation.
  std::uint32_t serve_class = 0;
  const bool competing = ready_classes >= 2;
  std::int64_t ready_weight = 0;
  {
    std::int64_t best_credit = 0;
    bool have_class = false;
    FLIPC_BOUNDED_BY(shm::kQosClassCount);
    for (std::uint32_t cls = 0; cls < shm::kQosClassCount; ++cls) {
      if (!class_ready[cls]) {
        continue;
      }
      ready_weight += options_.qos_weights[cls];
      if (!have_class || class_credit_[cls] > best_credit) {
        best_credit = class_credit_[cls];
        serve_class = cls;
        have_class = true;
      }
    }
  }

  // ---- Pass 2: fill the batch from the serving class. Real-time
  // endpoints (deadline_ns != 0) preempt non-RT ones, earliest head
  // deadline first (EDF); non-RT candidates keep rotation order.
  // Same-destination coalescing filters candidates: a head buffer the
  // commit path will reject (sentinel or out-of-range index) has no
  // determinate destination and joins any batch as a rejection.
  const std::size_t ready_count = scratch_ready_.size();
  std::uint16_t batch_node = 0;
  bool have_node = false;
  FLIPC_BOUNDED_BY(options_.transmit_batch);
  while (planned_batch_.size() < batch_limit) {
    std::size_t best = ready_count;
    bool best_rt = false;
    TimeNs best_deadline = 0;
    FLIPC_BOUNDED_BY(scratch_ready_.size());
    for (std::size_t idx = 0; idx < ready_count; ++idx) {
      const std::uint32_t endpoint = scratch_ready_[idx];
      if (scratch_taken_[endpoint] != 0) {
        continue;
      }
      const EndpointRecord& record = comm_.endpoint(endpoint);
      if (QosClassOf(record) != serve_class) {
        continue;
      }
      const BufferIndex buffer = comm_.queue(endpoint).PeekProcess();
      if (have_node && buffer != waitfree::kInvalidBuffer &&
          comm_.IsValidBufferIndex(buffer) &&
          comm_.msg(buffer).header->peer_address().node() != batch_node) {
        continue;  // Different destination: next transmit unit's problem.
      }
      const bool rt = record.deadline_ns.ReadRelaxed() != 0;
      const TimeNs deadline = rt ? HeadDeadline(endpoint, record) : 0;
      if (best == ready_count || (rt && !best_rt) ||
          (rt && best_rt && deadline < best_deadline)) {
        best = idx;
        best_rt = rt;
        best_deadline = deadline;
      }
    }
    if (best == ready_count) {
      break;  // Serving class exhausted (or blocked on destination mix).
    }
    const std::uint32_t endpoint = scratch_ready_[best];
    scratch_taken_[endpoint] = 1;
    if (!have_node) {
      const BufferIndex buffer = comm_.queue(endpoint).PeekProcess();
      if (buffer != waitfree::kInvalidBuffer && comm_.IsValidBufferIndex(buffer)) {
        batch_node = comm_.msg(buffer).header->peer_address().node();
        have_node = true;
      }
    }
    planned_batch_.push_back(endpoint);
  }
  planned_charge_ = {competing, serve_class, ready_weight, class_ready};

  // Ready endpoints that did not make this batch stay scheduled: rotate
  // them to the back of the active list (their in_active_ bit never
  // dropped, so doorbells rung meanwhile were deduplicated correctly).
  FLIPC_BOUNDED_BY(scratch_ready_.size());
  for (std::size_t idx = 0; idx < ready_count; ++idx) {
    const std::uint32_t endpoint = scratch_ready_[idx];
    if (scratch_taken_[endpoint] == 0) {
      active_.push_back(endpoint);
    }
  }
  return !planned_batch_.empty();
}

void MessagingEngine::ChargeClassCredit() {
  const CreditCharge& charge = planned_charge_;
  if (!charge.competing) {
    return;
  }
  FLIPC_BOUNDED_BY(shm::kQosClassCount);
  for (std::uint32_t cls = 0; cls < shm::kQosClassCount; ++cls) {
    if (charge.class_ready[cls]) {
      class_credit_[cls] += options_.qos_weights[cls];
      if (class_credit_[cls] > kQosCreditClamp) {
        class_credit_[cls] = kQosCreditClamp;  // Bound credit drift.
      }
    }
  }
  class_credit_[charge.serve_class] -= charge.ready_weight;
  if (class_credit_[charge.serve_class] < -kQosCreditClamp) {
    class_credit_[charge.serve_class] = -kQosCreditClamp;
  }
}

void MessagingEngine::PlanOutboundBatch() {
  // Draining the ring publishes ring_head, an engine-owned cell, and
  // PlanStep is otherwise role-free — bind the engine role here.
  waitfree::ScopedBoundaryRole boundary_role(waitfree::Writer::kEngine);
  // The whole plan — ring drain, sweeps, rotation — is the engine's
  // scheduling work unit: bounded and allocation-free (active_ and
  // planned_batch_ are fixed-capacity, sized at construction).
  FLIPC_HOT_PATH("MessagingEngine::PlanOutboundBatch");
  planned_batch_.clear();

  // Every send release either rings a doorbell, which is popped exactly
  // once, or raises the overflow signal. So the engine sweeps only when the
  // ring signals that a doorbell is unavailable: (a) a refused Ring(), or
  // (b) doorbells queued behind a head whose producer has claimed but not
  // yet published it.
  waitfree::DoorbellRingView ring = comm_.doorbell_ring();
  if (ring.OverflowPending()) {
    // Ack BEFORE sweeping, so a ring that overflows again mid-sweep raises
    // a fresh signal rather than being absorbed into this one.
    ring.AckOverflow();
    ++stats_.doorbell_overflows;
    SweepAllEndpoints();
  } else if (StalledHeadUnswept(ring)) {
    ++stats_.sweeps_stalled_head;
    SweepAllEndpoints();
  }
  DrainDoorbells();
  ++stats_.outbound_plans;
  SelectBatchFromActive();
}

DurationNs MessagingEngine::PlanStep() {
  if (planned_ != WorkKind::kNone) {
    return planned_cost_;
  }
  const PlatformModel* m = model_;
  const auto charge = [m](DurationNs ns) { return m != nullptr ? ns : 0; };
  const auto price_inbound = [&](const simnet::Packet& pkt) {
    DurationNs cost = charge(m != nullptr ? m->engine_dispatch_ns : 0);
    if (m != nullptr && pkt.protocol != simnet::kProtocolFlipc &&
        pkt.protocol < kMaxProtocols && handlers_[pkt.protocol] != nullptr) {
      cost += handlers_[pkt.protocol]->PlanCost(pkt);
    }
    if (pkt.protocol == simnet::kProtocolFlipc && m != nullptr) {
      cost += m->recv_overhead_ns + m->RecvCopyNs(pkt.payload.size());
      if (pkt.payload.size() + shm::kMsgHeaderSize < m->small_msg_threshold_bytes) {
        cost -= m->small_msg_discount_ns;
      }
      if (options_.validity_checks) {
        cost += m->validity_check_ns;
      }
      if (options_.model_unpadded_layout) {
        cost += m->engine_false_sharing_ns;
      }
    }
    return cost;
  };

  // Inbound first: the receiving node must always be ready to accept from
  // the interconnect (the optimistic protocol's no-deadlock guarantee, and
  // why two back-pressured rings cannot deadlock two engines). The poll
  // consumes at plan time, straight into planned_packet_, which carries
  // the packet into the commit.
  if (wire_.Poll(&planned_packet_)) {
    planned_ = WorkKind::kInbound;
    planned_cost_ = price_inbound(planned_packet_);
    return planned_cost_;
  }

  PlanOutboundBatch();
  if (!planned_batch_.empty()) {
    planned_ = WorkKind::kOutbound;
    DurationNs cost = 0;
    if (m != nullptr) {
      // The first message carries the full dispatch + send path (a batch of
      // one costs exactly the single-send path E1 calibrates); each
      // coalesced message adds only the per-message transmit share.
      const DurationNs per_message_checks =
          (options_.validity_checks ? m->validity_check_ns : 0) +
          (options_.model_unpadded_layout ? m->engine_false_sharing_ns : 0);
      cost = m->engine_dispatch_ns + m->send_overhead_ns + TransmitPlanCost() +
             per_message_checks;
      cost += static_cast<DurationNs>(planned_batch_.size() - 1) *
              (m->send_batch_extra_ns + TransmitPlanCost() + per_message_checks);
    }
    planned_cost_ = cost;
    return planned_cost_;
  }

  for (std::uint32_t id = 0; id < kMaxProtocols; ++id) {
    if (handlers_[id] != nullptr && handlers_[id]->HasWork()) {
      planned_ = WorkKind::kHandler;
      planned_handler_ = id;
      planned_cost_ = charge(m != nullptr ? m->engine_dispatch_ns : 0);
      return planned_cost_;
    }
  }

  planned_cost_ = 0;
  return 0;
}

bool MessagingEngine::CommitStep() {
  // Every comm-buffer mutation the engine makes happens under this commit,
  // so bind the engine role for its duration. Scoped (not per-thread): the
  // simulation drivers and the model checker step the engine from the same
  // thread that plays the application.
  waitfree::ScopedBoundaryRole boundary_role(waitfree::Writer::kEngine);
  if (planned_ == WorkKind::kNone) {
    PlanStep();
  }
  simnet::CostAccumulator cost;  // Already accounted by the driver via PlanStep.
  const WorkKind kind = planned_;
  const DurationNs committed_cost = planned_cost_;
  planned_ = WorkKind::kNone;
  planned_cost_ = 0;
  // An outbound unit is sampled below, only once it carried a message.
  if (telemetry_ != nullptr && kind != WorkKind::kNone && kind != WorkKind::kOutbound) {
    telemetry_->plan_cost_ns.Add(static_cast<double>(committed_cost));
  }

  switch (kind) {
    case WorkKind::kNone:
      return false;
    case WorkKind::kInbound: {
      const std::uint32_t protocol = planned_packet_.protocol;
      ++stats_.work_units;
      if (protocol == simnet::kProtocolFlipc) {
        DeliverLocal(planned_packet_, cost);
      } else if (protocol < kMaxProtocols && handlers_[protocol] != nullptr) {
        handlers_[protocol]->HandlePacket(std::move(planned_packet_), cost);
      } else {
        ++stats_.unknown_protocol_packets;
      }
      deferred_cost_ += cost.Take();
      return true;
    }
    case WorkKind::kOutbound: {
      // A unit whose first message the wire back-pressured did nothing
      // (only on a wire that cannot report a full ring ahead of the plan).
      const bool carried = CommitOutbound(cost);
      if (carried) {
        ++stats_.work_units;
        if (telemetry_ != nullptr) {
          telemetry_->plan_cost_ns.Add(static_cast<double>(committed_cost));
        }
      }
      deferred_cost_ += cost.Take();
      return carried;
    }
    case WorkKind::kHandler: {
      ++stats_.work_units;
      handlers_[planned_handler_]->PollWork(cost);
      deferred_cost_ += cost.Take();
      return true;
    }
  }
  return false;
}

bool MessagingEngine::Step() {
  PlanStep();
  if (planned_ == WorkKind::kNone) {
    return false;  // Idle: CommitStep would only plan (and sweep) again.
  }
  return CommitStep();
}

void MessagingEngine::RecoverFromBuffer() {
  // Recovery writes no comm-buffer cell: the doorbell ring keeps its
  // cursors, and the doorbells the dead engine left are popped later as
  // duplicates of the sweep below.

  // Discard any half-planned unit inherited through this object (a fresh
  // engine has none; an in-place recovery might). A planned_packet_ is
  // the ONLY copy of an inbound wire packet; on a dead engine that copy
  // died with its heap, a legitimate loss the optimistic contract already
  // covers (same as a packet lost mid-wire).
  planned_ = WorkKind::kNone;
  planned_cost_ = 0;
  planned_packet_.payload.clear();
  planned_batch_.clear();
  while (!active_.empty()) {
    active_.pop_front();
  }
  std::fill(in_active_.begin(), in_active_.end(), 0);

  // Engine-private QoS state dies with the engine: bucket levels and head
  // stamps were measured on the dead engine's timeline. Zeroing
  // seen_generation_ forces SyncSlotState to re-seed each slot on first
  // touch (alloc_generation never takes the value 0).
  std::fill(seen_generation_.begin(), seen_generation_.end(), 0);
  std::fill(bucket_tokens_.begin(), bucket_tokens_.end(), 0);
  std::fill(bucket_refill_at_.begin(), bucket_refill_at_.end(), 0);
  std::fill(head_seen_count_.begin(), head_seen_count_.end(), kNoHeadSeen);
  std::fill(head_seen_at_.begin(), head_seen_at_.end(), 0);
  class_credit_.fill(0);

  // Rebuild the active list from the cursors. Deliberately NOT
  // SweepAllEndpoints(): that counts toward backstop_sweeps, whose cause
  // identity (overflow + stalled head) must survive recovery; this sweep
  // is accounted under stats_.recovered_active.
  ++stats_.recoveries;
  stats_.recovered_active += ActivateAllProcessable();
}

bool MessagingEngine::HasWork() const {
  if (planned_ != WorkKind::kNone) {
    return true;
  }
  if (wire_.PendingCount() > 0) {
    return true;
  }
  // A published doorbell or a sweep trigger reports work even when the
  // endpoint it leads to has none — the next plan consumes the doorbell or
  // answers the trigger, so the DES cannot spin on it. A send released
  // since the last plan is always behind one of these: the ring is exact.
  const waitfree::DoorbellRingView ring = comm_.doorbell_ring();
  if (ring.HasPending() || ring.OverflowPending() || StalledHeadUnswept(ring)) {
    return true;
  }
  LazyNow now(clock_);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (SendReady(active_.at(i), now)) {
      return true;
    }
  }
  for (const ProtocolHandler* handler : handlers_) {
    if (handler != nullptr && handler->HasWork()) {
      return true;
    }
  }
  return false;
}

bool MessagingEngine::ValidateSendBuffer(std::uint32_t endpoint_index, BufferIndex buffer) {
  if (!comm_.IsValidBufferIndex(buffer)) {
    ++stats_.validity_rejections;
    // Diagnostic on the already-failed path; the logger buffers and may
    // allocate, which is acceptable once the message is being rejected.
    FLIPC_HOT_PATH_EXEMPT("rejection diagnostics");
    FLIPC_LOG(kWarning) << "engine " << wire_.node() << ": endpoint " << endpoint_index
                        << " released invalid buffer index " << buffer;
    return false;
  }
  return true;
}

bool MessagingEngine::CommitOutbound(simnet::CostAccumulator& cost) {
  FLIPC_HOT_PATH("MessagingEngine::CommitOutbound");
  std::size_t carried = 0;
  FLIPC_BOUNDED_BY(planned_batch_.size());
  for (; carried < planned_batch_.size(); ++carried) {
    const std::uint32_t endpoint_index = planned_batch_[carried];
    if (!CommitOutboundOne(endpoint_index, cost)) {
      break;  // Back-pressured: the batch shares one destination.
    }
    ChargeClassCredit();
    // Re-schedule the endpoint while it still holds processable work;
    // otherwise clear its membership so the next doorbell re-activates
    // it. (in_active_ covered the endpoint during the batch, deduping
    // doorbells rung between plan and commit.)
    if (comm_.endpoint(endpoint_index).Type() == EndpointType::kSend &&
        comm_.queue(endpoint_index).ProcessableCount() > 0) {
      active_.push_back(endpoint_index);
    } else {
      in_active_[endpoint_index] = 0;
    }
  }
  // The back-pressured rest keep their messages at their queue heads and
  // their place in the rotation; a later plan retries them.
  FLIPC_BOUNDED_BY(planned_batch_.size());
  for (std::size_t i = carried; i < planned_batch_.size(); ++i) {
    active_.push_back(planned_batch_[i]);
  }
  planned_batch_.clear();
  if (carried == 0) {
    return false;
  }
  ++stats_.transmit_batches;
  stats_.batched_messages += carried;
  if (telemetry_ != nullptr) {
    telemetry_->batch_size.Add(static_cast<double>(carried));
  }
  return true;
}

bool MessagingEngine::CommitOutboundOne(std::uint32_t endpoint_index,
                                        simnet::CostAccumulator& cost) {
  SyncSlotState(endpoint_index);  // Slot may have churned between plan and commit.
  EndpointRecord& record = comm_.endpoint(endpoint_index);
  if (record.Type() != EndpointType::kSend) {
    return true;  // Endpoint freed between plan and commit.
  }
  waitfree::BufferQueueView queue = comm_.queue(endpoint_index);
  if (queue.ProcessableCount() == 0) {
    return true;  // Drained between plan and commit.
  }
  shm::TelemetryBlock& telemetry = comm_.telemetry(endpoint_index);
  telemetry.NoteQueueDepth(queue.ProcessableCount());
  const BufferIndex buffer = queue.PeekProcess();
  if (buffer == waitfree::kInvalidBuffer) {
    // The queue claims processable work but the cell holds the sentinel —
    // an application corrupted its release cursor. The engine must still
    // make progress (a non-advancing return here would spin the event
    // loop forever), so consume the slot as a rejection.
    ++stats_.validity_rejections;
    RejectSend(endpoint_index, telemetry);
    return true;
  }

  // Validity checks (configurable; the paper measures +2 us for them).
  // An always-on check on the buffer index itself is kept even when checks
  // are off, because an out-of-range index would crash the engine rather
  // than merely corrupt the offending application's own data.
  if (!ValidateSendBuffer(endpoint_index, buffer)) {
    RejectSend(endpoint_index, telemetry);
    return true;
  }

  shm::MsgView view = comm_.msg(buffer);
  const Address dst = view.header->peer_address();
  const Address src(static_cast<std::uint16_t>(wire_.node()),
                    static_cast<std::uint16_t>(endpoint_index));

  if (options_.validity_checks && !dst.valid()) {
    ++stats_.validity_rejections;
    RejectSend(endpoint_index, telemetry);
    return true;
  }

  // Protection extension: a restricted endpoint may only address its
  // configured peer. Enforced unconditionally — this protects OTHER
  // applications, so it cannot be traded away for speed like the
  // self-protection validity checks above.
  const Address allowed = Address::FromPacked(record.allowed_peer.ReadRelaxed());
  if (allowed.valid() && dst != allowed) {
    ++stats_.protection_rejections;
    Trace(TraceEvent::kEngineReject, endpoint_index);
    RejectSend(endpoint_index, telemetry);
    return true;
  }

  // Asked per message, not only for the planned head: a batch can fill the
  // ring part-way. This engine is the ring's only producer, so room found
  // here is still there at the send, and the hook below fires once.
  if (wire_.BackPressured(dst.node())) {
    return false;  // Nothing consumed, nothing counted: the head stays queued.
  }
  // Stamp, then publish: the send hook (a tracer's "sent" stamp) runs
  // before the destination can see the frame.
  ObserveSend(endpoint_index);
  const TransmitOutcome outcome = TransmitMessage(endpoint_index, buffer, src, dst, cost);
  if (outcome == TransmitOutcome::kBackPressured) {
    return false;  // Nothing consumed, nothing counted: the head stays queued.
  }

  // One clock read, at most, serves the token refill, the service gap and
  // the next head's stamp.
  LazyNow now(clock_);

  // Capacity control: credit tokens accrued since the last refill, then pay
  // one for this transmission.
  if (clock_ != nullptr && record.bucket_capacity.ReadRelaxed() != 0) {
    RefillBucket(endpoint_index, record, now.Get());
    if (bucket_tokens_[endpoint_index] > 0) {
      --bucket_tokens_[endpoint_index];
    }
  }

  // QoS telemetry: how long this head message waited since the planner
  // first saw it backlogged, and whether a real-time deadline lapsed. The
  // stamp is only meaningful while it matches the current head
  // (process_count); a mismatched stamp belongs to an earlier message.
  if (clock_ != nullptr &&
      head_seen_count_[endpoint_index] == record.process_count.ReadRelaxed()) {
    const TimeNs at = now.Get();
    const std::uint64_t waited =
        at > head_seen_at_[endpoint_index]
            ? static_cast<std::uint64_t>(at - head_seen_at_[endpoint_index])
            : 0;
    telemetry.NoteServiceGap(waited);
    const std::uint32_t deadline = record.deadline_ns.ReadRelaxed();
    if (deadline != 0 && waited > deadline) {
      telemetry.RecordDeadlineMiss();
    }
  }

  // Counted here (not inside the strategy) so subclasses that defer
  // completion still account the attempt, and before the completion
  // publishes process_count: at quiescence
  // processed_total == engine_transmits + engine_rejects.
  telemetry.RecordEngineTransmit();
  if (outcome == TransmitOutcome::kComplete) {
    CompleteSend(endpoint_index);
  }

  // The next message (if already queued) became head at this instant;
  // stamp it now so its wait is measured from here, not from the next
  // plan rotation. Deferred-completion strategies leave process_count
  // unchanged, which makes this a no-op — the stamp stays on the
  // still-unfinished head.
  if (clock_ != nullptr && queue.ProcessableCount() > 0) {
    NoteHeadObserved(endpoint_index, now);
  }
  return true;
}

MessagingEngine::TransmitOutcome MessagingEngine::TransmitMessage(
    std::uint32_t endpoint_index, BufferIndex buffer, Address src, Address dst,
    simnet::CostAccumulator& cost) {
  // The packet stands in for the interconnect DMA: on the Paragon the
  // payload moves over the mesh. Its payload is inline, so building it and
  // handing it to the wire stay on the allocation-free hot path (the
  // simulated wire exempts its own event machinery).
  shm::MsgView view = comm_.msg(buffer);
  simnet::Packet packet;
  packet.dst_node = dst.node();
  packet.protocol = simnet::kProtocolFlipc;
  packet.src_addr = src.packed();
  packet.dst_addr = dst.packed();
  packet.seq = send_seq_;
  packet.payload.assign(view.payload, view.payload + view.payload_size);

  const Status status = wire_.Send(std::move(packet));
  if (status.code() == StatusCode::kUnavailable) {
    return TransmitOutcome::kBackPressured;  // Same seq again on the retry.
  }
  ++send_seq_;
  if (!status.ok()) {
    // Unknown destination node (or a frame the wire cannot carry): the
    // optimistic protocol has no error path back to the sender; the
    // message is charged as a bad-address discard.
    ++stats_.drops_bad_address;
  } else {
    ++stats_.messages_sent;
    stats_.bytes_sent += view.payload_size;
    Trace(TraceEvent::kEngineSend, endpoint_index, buffer);
  }
  ChargeModel(cost, 0);  // Native transmit costs were charged at plan time.
  return TransmitOutcome::kComplete;
}

void MessagingEngine::CompleteSend(std::uint32_t endpoint_index) {
  EndpointRecord& record = comm_.endpoint(endpoint_index);
  waitfree::BufferQueueView queue = comm_.queue(endpoint_index);
  const BufferIndex buffer = queue.PeekProcess();
  if (buffer != waitfree::kInvalidBuffer && comm_.IsValidBufferIndex(buffer)) {
    comm_.msg(buffer).header->state.Store(MsgState::kCompleted);
  }
  queue.AdvanceProcess();
  record.processed_total.Publish(record.processed_total.ReadRelaxed() + 1);

  if ((record.options.ReadRelaxed() & shm::kEndpointOptSemaphore) != 0 && semaphores_ != nullptr) {
    // The real-time semaphore handoff is the kernel's documented role in
    // the paper's split (blocking waits live in the OS, not the engine);
    // signaling takes the semaphore's internal mutex by design.
    FLIPC_HOT_PATH_EXEMPT("real-time semaphore handoff");
    semaphores_->Signal(record.semaphore_id.ReadRelaxed());
    ++stats_.semaphore_signals;
  }
}

void MessagingEngine::ObserveSend(std::uint32_t endpoint_index) {
  if (send_complete_hook_) {
    // Test/driver observation hook: arbitrary user code, off the product path.
    FLIPC_HOT_PATH_EXEMPT("observation hook");
    send_complete_hook_(endpoint_index);
  }
}

void MessagingEngine::RejectSend(std::uint32_t endpoint_index,
                                 shm::TelemetryBlock& telemetry) {
  telemetry.RecordEngineReject();
  CompleteSend(endpoint_index);
  ObserveSend(endpoint_index);
}

void MessagingEngine::DeliverLocal(const simnet::Packet& packet, simnet::CostAccumulator&) {
  FLIPC_HOT_PATH("MessagingEngine::DeliverLocal");
  const Address dst = Address::FromPacked(packet.dst_addr);

  // Destination validation is not optional: a bad remote address must not
  // crash this node's engine. (The sender-side configurable checks would
  // have caught it earlier and cheaper.)
  if (!dst.valid() || dst.node() != wire_.node() || !comm_.IsValidEndpointIndex(dst.endpoint())) {
    ++stats_.drops_bad_address;
    return;
  }
  EndpointRecord& record = comm_.endpoint(dst.endpoint());
  if (record.Type() != EndpointType::kReceive) {
    ++stats_.drops_bad_address;
    return;
  }

  waitfree::BufferQueueView queue = comm_.queue(dst.endpoint());
  shm::TelemetryBlock& telemetry = comm_.telemetry(dst.endpoint());
  telemetry.NoteQueueDepth(queue.ProcessableCount());
  const BufferIndex buffer = queue.PeekProcess();
  if (buffer == waitfree::kInvalidBuffer) {
    // The optimistic protocol's rule: no posted receive buffer => discard,
    // count it in the endpoint's wait-free drop counter.
    record.RecordDrop();
    ++stats_.drops_no_buffer;
    Trace(TraceEvent::kEngineDrop, dst.endpoint());
    if (receive_hook_) {
      FLIPC_HOT_PATH_EXEMPT("observation hook");
      receive_hook_(dst.endpoint(), /*delivered=*/false);
    }
    return;
  }
  if (!comm_.IsValidBufferIndex(buffer)) {
    ++stats_.validity_rejections;
    telemetry.RecordEngineReject();
    queue.AdvanceProcess();
    return;
  }

  shm::MsgView view = comm_.msg(buffer);
  const std::size_t n = packet.payload.size() < view.payload_size ? packet.payload.size()
                                                                  : view.payload_size;
  std::memcpy(view.payload, packet.payload.data(), n);
  view.header->peer.Publish(packet.src_addr);  // Receiver learns the sender.
  if (receive_hook_) {
    // Stamp, then publish: the hook observes the delivery instant before
    // the release below hands the message to the application, so a
    // polling receiver can never see it first.
    FLIPC_HOT_PATH_EXEMPT("observation hook");
    receive_hook_(dst.endpoint(), /*delivered=*/true);
  }
  view.header->state.Store(MsgState::kCompleted);
  queue.AdvanceProcess();
  record.processed_total.Publish(record.processed_total.ReadRelaxed() + 1);
  telemetry.RecordEngineDelivery();
  ++stats_.messages_delivered;
  Trace(TraceEvent::kEngineDeliver, dst.endpoint(), buffer);

  if ((record.options.ReadRelaxed() & shm::kEndpointOptSemaphore) != 0 && semaphores_ != nullptr) {
    // Kernel-side blocking support, same exemption as CompleteSend.
    FLIPC_HOT_PATH_EXEMPT("real-time semaphore handoff");
    semaphores_->Signal(record.semaphore_id.ReadRelaxed());
    ++stats_.semaphore_signals;
  }
}

}  // namespace flipc::engine
