// The doorbell ring: a wait-free MPSC ring of endpoint indices that lets
// the messaging engine schedule O(active) instead of sweeping every
// endpoint slot in the communication buffer.
//
// The paper's engine "examines endpoints in the communication buffer for
// messages to send" — a full scan whose cost grows with *configured*
// endpoints. The doorbell ring inverts that: every application send
// release appends ("rings") its endpoint index, and the engine consumes
// indices instead of sweeping. Doorbells are HINTS, not the source of
// truth: the queue cursors remain authoritative, duplicates are harmless
// (the engine dedups against its active set), and a lost doorbell is
// recovered by the engine's periodic backstop sweep. That tolerance is
// what keeps both sides wait-free within the single-writer discipline:
//
//   * Ring cells are written only by the application (at ring time) —
//     SingleWriterCells registered app-owned with the race detector.
//   * ring_head is written only by the engine; ring_tail and the overflow
//     signal only by the application.
//   * The only read-modify-write is the application-side slot claim
//     (ring_tail fetch_add) — mutual exclusion among application threads,
//     which the paper permits (cf. the endpoint TasLock); the ENGINE still
//     performs loads and stores only, as its controllers require.
//
// Slot validity is carried inside the cell value, not by a consumer-written
// flag (the engine may not write cells): each cell packs a lap tag with the
// endpoint index. The consumer accepts a cell only when its tag matches the
// lap expected at the head position, so an unpublished or stale slot reads
// as empty, and a slot overwritten by a producer that lapped the ring reads
// as "future" — the consumer skips it (that doorbell is lost; the backstop
// sweep covers it) rather than stalling.
//
// When the ring is full the producer does NOT spin (sends must stay
// wait-free): it bumps the overflow signal instead, and the engine answers
// a pending overflow with a full sweep. Liveness therefore never depends on
// ring capacity.
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
  // the fetch_add slot claim is mutual exclusion among application threads;
  // the engine only reads it.
  std::atomic<std::uint32_t> ring_tail{0};
  // Bumped when a producer finds the ring full; the engine answers a
  // mismatch against overflow_seen with a backstop sweep. A lossy signal,
  // not a counter: one sweep covers any number of coincident overflows.
  SingleWriterCell<std::uint32_t> overflow_rung;

  // --- Engine-owned line ---
  alignas(kCacheLineSize) SingleWriterCell<std::uint32_t> ring_head;
  SingleWriterCell<std::uint32_t> overflow_seen;

  // Registers the cursors with the ownership race detector (no-op unless
  // FLIPC_CHECK_SINGLE_WRITER). ring_tail is an RMW word, outside the
  // single-writer registry by design — like the endpoint TasLock.
  void DeclareOwners() {
    overflow_rung.DeclareOwner(Writer::kApplication, "DoorbellCursors.overflow_rung");
    ring_head.DeclareOwner(Writer::kEngine, "DoorbellCursors.ring_head");
    overflow_seen.DeclareOwner(Writer::kEngine, "DoorbellCursors.overflow_seen");
  }
};
static_assert(sizeof(DoorbellCursors) == 2 * kCacheLineSize);

// Non-owning view over cursors + a cell array living in the communication
// buffer. Capacity must be a power of two (>= 2).
class DoorbellRingView {
 public:
  DoorbellRingView() = default;
  DoorbellRingView(DoorbellCursors* cursors, SingleWriterCell<std::uint64_t>* cells,
                   std::uint32_t capacity)
      : cursors_(cursors), cells_(cells), mask_(capacity - 1), capacity_(capacity) {}

  bool valid() const { return cursors_ != nullptr; }
  std::uint32_t capacity() const { return capacity_; }

  // ======================= Application side ================================

  // Rings the doorbell for `endpoint`. Returns false when the ring was full
  // — the overflow signal has been raised instead, so the engine will sweep;
  // the caller proceeds exactly as on success (doorbells are hints).
  bool Ring(std::uint32_t endpoint) {
    FLIPC_HOT_PATH("DoorbellRingView::Ring");
    if (!CheckRoom()) {
      return false;
    }
    PublishSlot(ClaimSlot(), endpoint);
    return true;
  }

  // Ring() in its three steps. Concurrent producers interleave between
  // them, which is how a claim overshoots the soft-full check; the model
  // checker drives the steps one at a time.

  // The soft-full check. When the ring is full, raises the overflow signal
  // rather than spin and returns false. Concurrent producers may collapse
  // increments — acceptable, the signal is level-triggered (any mismatch
  // causes one covering sweep).
  bool CheckRoom() {
    const std::uint32_t head = cursors_->ring_head.ReadRelaxed();
    if (cursors_->ring_tail.load(std::memory_order_relaxed) - head >= capacity_) {
      cursors_->overflow_rung.Publish(cursors_->overflow_rung.ReadRelaxed() + 1);
      return false;
    }
    return true;
  }

  // Claims the next position: the ring's only read-modify-write. Release
  // orders this producer's earlier publishes before the claim, which the
  // consumer's full-lap check relies on (LostAtFull).
  std::uint32_t ClaimSlot() {
    return cursors_->ring_tail.fetch_add(1, std::memory_order_release);
  }

  // Publishes `endpoint` at a claimed position. If concurrent producers
  // overshot the soft-full check, this store overwrites a not-yet-consumed
  // slot from the previous lap (the consumer skips the future tag; the
  // overwritten doorbell is lost, which the backstop sweep tolerates), or,
  // when this producer is the late one, writes an older tag over a later
  // lap's doorbell (Pop() skips that slot once the ring is full).
  void PublishSlot(std::uint32_t pos, std::uint32_t endpoint) {
    cells_[pos & mask_].Publish(MakeCell(pos, endpoint));
  }

  // =========================== Engine side =================================

  // Consumes the next published doorbell, or returns kInvalidDoorbell when
  // none is pending. Wait-free: loads and stores only.
  std::uint32_t Pop() {
    FLIPC_HOT_PATH("DoorbellRingView::Pop");
    // The skip-lapped-slots loop is bounded: each iteration advances
    // ring_head past a lapped slot, and at most one full lap of slots can be
    // stale (plus slack for producers racing ahead while we consume).
    FLIPC_HOT_PATH_LOOP_BUDGET(budget, "DoorbellRingView::Pop",
                               2 * static_cast<std::uint64_t>(capacity_) + 64);
    FLIPC_BOUNDED_BY(2 * capacity_ + 64);
    for (;;) {
      FLIPC_HOT_PATH_LOOP_STEP(budget);
      const std::uint32_t head = cursors_->ring_head.ReadRelaxed();
      // Acquire pairs with the producer's Publish: observing the matching
      // tag also orders the producer's earlier queue-cursor publication.
      const std::uint64_t cell = cells_[head & mask_].Read();
      const std::uint32_t tag = static_cast<std::uint32_t>(cell >> 32);
      const std::uint32_t expected = ExpectedTag(head);
      if (tag == expected) {
        cursors_->ring_head.Publish(head + 1);
        return static_cast<std::uint32_t>(cell);
      }
      if (static_cast<std::int32_t>(tag - expected) > 0 || LostAtFull(head)) {
        // A producer lapped this slot: its original doorbell was
        // overwritten. Or the slot is stale while a full lap past it is
        // claimed: its producer published after a later lap's producer
        // (both overshot one soft-full check), or has not published yet;
        // waiting would leave the ring full and refusing every Ring() from
        // here on. Skip it (lost doorbells are backstop-swept) so the ring
        // self-heals instead of wedging.
        cursors_->ring_head.Publish(head + 1);
        continue;
      }
      return kInvalidDoorbell;  // Unpublished or stale: ring empty here.
    }
  }

  // True when Pop() would consume or skip the head slot.
  bool HasPending() const {
    const std::uint32_t head = cursors_->ring_head.ReadRelaxed();
    const std::uint32_t tag =
        static_cast<std::uint32_t>(cells_[head & mask_].Read() >> 32);
    return static_cast<std::int32_t>(tag - ExpectedTag(head)) >= 0 || LostAtFull(head);
  }

  // True when a producer reported a full ring the engine has not yet
  // answered with a sweep.
  bool OverflowPending() const {
    return cursors_->overflow_rung.Read() != cursors_->overflow_seen.ReadRelaxed();
  }

  // Acknowledges the overflow signal; call before the covering sweep so a
  // signal raised during the sweep is not lost.
  void AckOverflow() {
    cursors_->overflow_seen.Publish(cursors_->overflow_rung.Read());
  }

  // ==================== Quiescent recovery =================================

  // Fast-forwards the consume cursor to the producers' current position and
  // acknowledges any outstanding overflow signal. Crash-recovery entry
  // point (MessagingEngine::RecoverFromBuffer): doorbells are hints, and
  // hints published before the engine died refer to work the recovery
  // sweep rediscovers from the authoritative queue cursors — consuming
  // them one by one would re-schedule that same work more slowly.
  //
  // Quiescent on the ENGINE side only: no planner may be consuming this
  // ring, but application producers may keep ringing concurrently (a
  // mid-traffic restart). ring_head stays single-writer (the recovering
  // thread is the only engine-side writer), and a doorbell published
  // between the tail read and the head store is skipped — exactly the
  // lost-doorbell case the backstop sweep already tolerates.
  FLIPC_ROLE_QUIESCENT void ResetConsumerQuiescent() {
    cursors_->ring_head.StoreRelaxed(
        cursors_->ring_tail.load(std::memory_order_relaxed));
    cursors_->overflow_seen.StoreRelaxed(cursors_->overflow_rung.Read());
  }

  // ==================== Introspection (either side) ========================

  std::uint32_t PendingCount() const {
    return cursors_->ring_tail.load(std::memory_order_relaxed) -
           cursors_->ring_head.Read();
  }

 private:
  // Lap tag for position `pos`: the first position of the NEXT lap. Tags
  // are positions, so they wrap mod 2^32 exactly as the cursors do, and
  // the signed differences in Pop() order them across the 2^32 wrap (one
  // lap apart is always +-capacity). A tag that counted laps would wrap at
  // 2^(32 - log2 capacity) instead, and at the position wrap every stale
  // cell would read as a future lap. A zero-initialized cell (tag 0) reads
  // as stale throughout the first half of the position range; by the last
  // lap before the wrap, where 0 is the expected tag, every cell has been
  // published (the ring starts at position 0 with zeroed cells).
  std::uint32_t ExpectedTag(std::uint32_t pos) const { return (pos | mask_) + 1; }

  // True when the slot at `head` still holds an older lap's tag although a
  // full lap of positions past it is claimed. Below full, a stale tag is
  // an unpublished slot whose producer is still on its way, and the
  // consumer waits. The tail is read first and the cell again after it:
  // the acquire pairs with ClaimSlot's release, so a slot published before
  // a later claim (always so for a lone producer) is visible here and is
  // never skipped.
  bool LostAtFull(std::uint32_t head) const {
    if (cursors_->ring_tail.load(std::memory_order_acquire) - head < capacity_) {
      return false;
    }
    const std::uint32_t tag = static_cast<std::uint32_t>(cells_[head & mask_].Read() >> 32);
    return static_cast<std::int32_t>(tag - ExpectedTag(head)) < 0;
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
