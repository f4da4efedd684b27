// The doorbell ring: a wait-free MPSC ring of endpoint indices that lets
// the messaging engine schedule O(active) instead of sweeping every
// endpoint slot in the communication buffer.
//
// The paper's engine "examines endpoints in the communication buffer for
// messages to send" — a full scan whose cost grows with *configured*
// endpoints. The doorbell ring inverts that: every application send
// release appends ("rings") its endpoint index, and the engine consumes
// indices instead of sweeping. The queue cursors remain authoritative and
// duplicates are harmless (the engine dedups against its active set), but
// the ring is EXACT: every successful Ring() is popped exactly once, in
// claim order, and every refused Ring() leaves the overflow signal
// pending. So every send release is announced to the engine one way or the
// other, and the engine sweeps only when the ring itself says a doorbell
// is unavailable (MessagingEngine::PlanOutboundBatch).
//
//   * Ring cells are written only by the application (at ring time) —
//     SingleWriterCells registered app-owned with the race detector.
//   * ring_head and the overflow acknowledgement are written only by the
//     engine; ring_tail and the overflow signal only by the application.
//   * The read-modify-writes are application-side: the slot claim (a
//     compare-exchange on ring_tail) and, when the ring is full, the
//     overflow increment — mutual exclusion among application threads,
//     which the paper permits (cf. the endpoint TasLock); the ENGINE still
//     performs loads and stores only, as its controllers require.
//
// A claim succeeds only while the ring is below full against the head the
// producer read. That head can only be stale-low, so no claim ever laps
// the consumer and no slot is ever overwritten. Slot validity is carried
// inside the cell value, not by a consumer-written flag (the engine may not
// write cells): each cell packs a lap tag with the endpoint index, and the
// consumer accepts the head cell only when its tag matches the head
// position's lap. A claimed slot whose producer has not published yet
// reads as empty, and the consumer waits on it; the engine covers the
// doorbells queued behind it with a sweep (MessagingEngine trigger (b)).
//
// When the ring is full, or a producer loses its bounded claim retries to
// other producers, the producer does NOT spin (sends must stay wait-free):
// it raises the overflow signal instead, and the engine answers a pending
// overflow with a full sweep. Liveness therefore never depends on ring
// capacity.
#ifndef SRC_WAITFREE_DOORBELL_RING_H_
#define SRC_WAITFREE_DOORBELL_RING_H_

#include <atomic>
#include <cstdint>

#include "src/base/hotpath.h"
#include "src/base/types.h"
#include "src/waitfree/boundary_check.h"
#include "src/waitfree/single_writer.h"

namespace flipc::waitfree {

// Returned by Pop() when no published doorbell is pending.
inline constexpr std::uint32_t kInvalidDoorbell = 0xffffffffu;

// Cursor block, one cache line per writer (the false-sharing rule applies
// to the ring exactly as to the endpoint queues).
struct alignas(kCacheLineSize) DoorbellCursors {
  // --- Application-owned line ---
  // Free-running producer position. Plain atomic (not a SingleWriterCell):
  // the compare-exchange slot claim is mutual exclusion among application
  // threads; the engine only reads it.
  std::atomic<std::uint32_t> ring_tail{0};
  // Incremented when a producer's Ring() is refused; the engine answers a
  // mismatch against overflow_seen with a sweep. An atomic increment, like
  // ring_tail, so that concurrent refusals cannot collapse into one store
  // that an acknowledgement between them would absorb.
  std::atomic<std::uint32_t> overflow_rung{0};

  // --- Engine-owned line ---
  alignas(kCacheLineSize) SingleWriterCell<std::uint32_t> ring_head;
  SingleWriterCell<std::uint32_t> overflow_seen;

  // Registers the cursors with the ownership race detector (no-op unless
  // FLIPC_CHECK_SINGLE_WRITER). ring_tail and overflow_rung are RMW words,
  // outside the single-writer registry by design — like the endpoint
  // TasLock.
  void DeclareOwners() {
    ring_head.DeclareOwner(Writer::kEngine, "DoorbellCursors.ring_head");
    overflow_seen.DeclareOwner(Writer::kEngine, "DoorbellCursors.overflow_seen");
  }
};
static_assert(sizeof(DoorbellCursors) == 2 * kCacheLineSize);

// Non-owning view over cursors + a cell array living in the communication
// buffer. Capacity must be a power of two (>= 2).
class DoorbellRingView {
 public:
  // Claim attempts before a producer that keeps losing the compare-exchange
  // to other producers gives up and raises the overflow signal. Each loss
  // means another producer's claim succeeded.
  static constexpr std::uint32_t kClaimAttempts = 8;

  DoorbellRingView() = default;
  DoorbellRingView(DoorbellCursors* cursors, SingleWriterCell<std::uint64_t>* cells,
                   std::uint32_t capacity)
      : cursors_(cursors), cells_(cells), mask_(capacity - 1), capacity_(capacity) {}

  bool valid() const { return cursors_ != nullptr; }
  std::uint32_t capacity() const { return capacity_; }

  // ======================= Application side ================================

  // Rings the doorbell for `endpoint`. Returns false when the ring refused
  // it — the overflow signal has been raised instead, so the engine will
  // sweep; the caller proceeds exactly as on success.
  bool Ring(std::uint32_t endpoint) {
    FLIPC_HOT_PATH("DoorbellRingView::Ring");
    std::uint32_t pos = 0;
    if (!ClaimSlot(&pos)) {
      return false;
    }
    PublishSlot(pos, endpoint);
    return true;
  }

  // Ring() in its two steps. Concurrent producers interleave between them
  // (a producer can be preempted holding a claimed, unpublished slot); the
  // model checker drives the steps one at a time.

  // Claims the next position, only below full: the compare-exchange
  // succeeds only when tail - head < capacity for the tail it replaces.
  // The head is read first, with acquire: it can only be stale-low, and
  // every claim below it is then visible, so the tail read next is never
  // below it. Release orders this producer's queue release before the
  // claim, which the engine's stalled-head sweep relies on. On a full ring,
  // or after kClaimAttempts lost races, raises the overflow signal and
  // returns false.
  bool ClaimSlot(std::uint32_t* pos) {
    FLIPC_BOUNDED_BY(kClaimAttempts);
    for (std::uint32_t attempt = 0; attempt < kClaimAttempts; ++attempt) {
      const std::uint32_t head = cursors_->ring_head.Read();
      std::uint32_t tail = cursors_->ring_tail.load(std::memory_order_relaxed);
      if (tail - head >= capacity_) {
        break;
      }
      if (cursors_->ring_tail.compare_exchange_strong(tail, tail + 1, std::memory_order_release,
                                                      std::memory_order_relaxed)) {
        *pos = tail;
        return true;
      }
    }
    SignalOverflow();
    return false;
  }

  // Publishes `endpoint` at a claimed position. The slot is free: its
  // previous lap was consumed before the claim.
  void PublishSlot(std::uint32_t pos, std::uint32_t endpoint) {
    cells_[pos & mask_].Publish(MakeCell(pos, endpoint));
  }

  // Raises the overflow signal: the engine's next plan sweeps every
  // endpoint. A writer that releases sends without ringing raises it in
  // place of each doorbell. Release orders the caller's queue releases
  // before the signal.
  void SignalOverflow() { cursors_->overflow_rung.fetch_add(1, std::memory_order_release); }

  // =========================== Engine side =================================

  // Consumes the doorbell at the head, or returns kInvalidDoorbell when the
  // head position is not published (empty ring, or a claimed slot whose
  // producer has not published yet). Wait-free: loads and stores only.
  std::uint32_t Pop() {
    FLIPC_HOT_PATH("DoorbellRingView::Pop");
    const std::uint32_t head = cursors_->ring_head.ReadRelaxed();
    // Acquire pairs with the producer's Publish: observing the matching
    // tag also orders the producer's earlier queue-cursor publication.
    const std::uint64_t cell = cells_[head & mask_].Read();
    if (static_cast<std::uint32_t>(cell >> 32) != ExpectedTag(head)) {
      return kInvalidDoorbell;
    }
    cursors_->ring_head.Publish(head + 1);
    return static_cast<std::uint32_t>(cell);
  }

  // True when Pop() would consume the head slot.
  bool HasPending() const { return HeadPublished(cursors_->ring_head.ReadRelaxed()); }

  // The producers' claim position. Acquire pairs with the claim's release:
  // a sweep that follows this read sees every queue release made before a
  // claim below the returned position.
  std::uint32_t ClaimedTail() const {
    return cursors_->ring_tail.load(std::memory_order_acquire);
  }

  // True when the head position is claimed but not yet published: Pop()
  // waits there, while doorbells claimed after it may be published.
  bool HeadStalled() const {
    const std::uint32_t head = cursors_->ring_head.ReadRelaxed();
    return ClaimedTail() != head && !HeadPublished(head);
  }

  // True when a producer's Ring() was refused and the engine has not yet
  // answered with a sweep.
  bool OverflowPending() const {
    return cursors_->overflow_rung.load(std::memory_order_acquire) !=
           cursors_->overflow_seen.ReadRelaxed();
  }

  // Acknowledges the overflow signal; call before the covering sweep so a
  // signal raised during the sweep is not lost.
  void AckOverflow() {
    cursors_->overflow_seen.Publish(cursors_->overflow_rung.load(std::memory_order_acquire));
  }

  // ==================== Introspection (either side) ========================

  // The consume position.
  std::uint32_t Head() const { return cursors_->ring_head.Read(); }

  // Claimed positions not yet consumed, published or not.
  std::uint32_t PendingCount() const {
    return cursors_->ring_tail.load(std::memory_order_relaxed) - Head();
  }

 private:
  // Lap tag for position `pos`: the first position of the NEXT lap. Tags
  // are positions, so they wrap mod 2^32 exactly as the cursors do. The
  // slot at `pos` holds either this tag (published) or the previous lap's
  // (not yet), never a later lap's, because no claim passes the consumer. A
  // zero-initialized cell (tag 0) matches only in the last lap before the
  // 2^32 wrap, and by then every cell has been published (the ring starts
  // at position 0 with zeroed cells).
  std::uint32_t ExpectedTag(std::uint32_t pos) const { return (pos | mask_) + 1; }

  bool HeadPublished(std::uint32_t head) const {
    return static_cast<std::uint32_t>(cells_[head & mask_].Read() >> 32) == ExpectedTag(head);
  }

  std::uint64_t MakeCell(std::uint32_t pos, std::uint32_t endpoint) const {
    return (static_cast<std::uint64_t>(ExpectedTag(pos)) << 32) | endpoint;
  }

  DoorbellCursors* cursors_ = nullptr;
  SingleWriterCell<std::uint64_t>* cells_ = nullptr;
  std::uint32_t mask_ = 0;
  std::uint32_t capacity_ = 0;
};

// Owning ring for unit tests and the model checker; the production ring
// lives in the communication buffer (src/shm/comm_buffer.h).
template <std::uint32_t kCapacity>
class InlineDoorbellRing {
  static_assert(kCapacity >= 2 && (kCapacity & (kCapacity - 1)) == 0,
                "capacity must be a power of two");

 public:
  InlineDoorbellRing() : view_(&cursors_, cells_, kCapacity) {
    cursors_.DeclareOwners();
    for (std::uint32_t i = 0; i < kCapacity; ++i) {
      // Ring cells are written only at ring time, by the application.
      cells_[i].DeclareOwner(Writer::kApplication, "InlineDoorbellRing.cells");
    }
  }

  ~InlineDoorbellRing() {
    // The detector keys declarations by address; drop them before the heap
    // can hand this storage to an unrelated object.
    UndeclareCellRange(this, sizeof(*this));
  }

  DoorbellRingView& view() { return view_; }

 private:
  DoorbellCursors cursors_{};
  SingleWriterCell<std::uint64_t> cells_[kCapacity] = {};
  DoorbellRingView view_;
};

}  // namespace flipc::waitfree

#endif  // SRC_WAITFREE_DOORBELL_RING_H_
