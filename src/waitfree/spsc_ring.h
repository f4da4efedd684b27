// The wire ring: a wait-free SPSC ring of fixed-size byte frames that
// carries packets from one node's engine to another's on the real-thread
// fabric (simnet::ThreadFabric keeps one ring per (source, destination)
// node pair, all carved out of one allocation).
//
// It is a Lamport ring: the producer publishes a frame by release-storing
// wire_tail past it, and the consumer sees the frame by acquire-reading
// wire_tail. Every shared word keeps exactly one writer:
//
//   * the slot frames and wire_tail are written only by the PRODUCER (the
//     source node's engine);
//   * wire_head is written only by the CONSUMER (the destination node's
//     engine);
//   * the two cursors live on separate cache lines, and each side caches
//     the other's cursor on its own line, refreshing it only when the ring
//     looks full (producer) or empty (consumer).
//
// With a single producer the slot claim is a plain load of the producer's
// own cursor, so the ring has no read-modify-write anywhere: both sides are
// loads and stores only, the discipline the paper's controllers require.
// Each ring preserves its pair's FIFO order by construction.
//
// Unlike doorbells, a frame is not a hint: it is the only copy of its
// packet. A full ring therefore refuses the frame (TryReserve returns null)
// instead of overwriting or dropping, and the producer retries later — the
// back-pressure the engine turns into "the message stays at its send-queue
// head".
//
// Setting a ring up writes only its two cursor lines; the frame storage
// stays untouched until a frame is written into it.
#ifndef SRC_WAITFREE_SPSC_RING_H_
#define SRC_WAITFREE_SPSC_RING_H_

#include <cstddef>
#include <cstdint>

#include "src/base/hotpath.h"
#include "src/base/types.h"
#include "src/waitfree/boundary_check.h"
#include "src/waitfree/single_writer.h"

namespace flipc::waitfree {

// Cursor block, one cache line per writing side (the false-sharing rule
// applies between two engines exactly as across the app/engine boundary).
struct alignas(kCacheLineSize) SpscCursors {
  // --- Producer line ---
  // The producer's position; its release store publishes the frames below it.
  SingleWriterCell<std::uint32_t> wire_tail;
  // Producer-private: the last wire_head it observed. Refreshed only when
  // the ring looks full, so the producer rarely touches the consumer line.
  std::uint32_t head_cache = 0;

  // --- Consumer line ---
  alignas(kCacheLineSize) SingleWriterCell<std::uint32_t> wire_head;
  // Consumer-private: the last wire_tail it observed. Refreshed only when
  // the ring looks empty, so a backlog drains without touching the
  // producer line.
  std::uint32_t tail_cache = 0;

  // Registers the cursors with the ownership race detector (no-op unless
  // FLIPC_CHECK_SINGLE_WRITER). Both sides are engines.
  void DeclareOwners() {
    wire_tail.DeclareOwner(Writer::kEngine, "SpscCursors.wire_tail");
    wire_head.DeclareOwner(Writer::kEngine, "SpscCursors.wire_head");
  }
};
static_assert(sizeof(SpscCursors) == 2 * kCacheLineSize);

// Non-owning view over a ring's cursors and frame storage. Capacity must be
// a power of two (>= 2); `stride` is the distance between frames (a frame
// holds up to `stride` bytes).
class SpscFrameRingView {
 public:
  SpscFrameRingView() = default;
  SpscFrameRingView(SpscCursors* cursors, std::byte* frames, std::uint32_t capacity,
                    std::size_t stride)
      : cursors_(cursors), frames_(frames), stride_(stride), mask_(capacity - 1),
        capacity_(capacity) {}

  std::uint32_t capacity() const { return capacity_; }

  // =========================== Producer only ===============================

  // Whether the ring is full, so TryReserve would fail now.
  FLIPC_ROLE_ENGINE bool NoRoom() {
    const std::uint32_t pos = cursors_->wire_tail.ReadRelaxed();
    if (pos - cursors_->head_cache < capacity_) {
      return false;
    }
    // Acquire pairs with the consumer's head Publish: observing the
    // advanced head also orders its reads of the slot about to be reused.
    cursors_->head_cache = cursors_->wire_head.Read();
    return pos - cursors_->head_cache >= capacity_;
  }

  // Storage for the next frame (stride bytes), or null when the ring is
  // full. Write the frame, then Commit(). Wait-free: loads and stores.
  FLIPC_ROLE_ENGINE std::byte* TryReserve() {
    FLIPC_HOT_PATH("SpscFrameRingView::TryReserve");
    return NoRoom() ? nullptr : Frame(cursors_->wire_tail.ReadRelaxed());
  }

  // Publishes the frame written into the last TryReserve() slot.
  FLIPC_ROLE_ENGINE void Commit() {
    FLIPC_HOT_PATH("SpscFrameRingView::Commit");
    // Release makes the frame bytes visible before the advanced tail.
    cursors_->wire_tail.Publish(cursors_->wire_tail.ReadRelaxed() + 1);
  }

  // =========================== Consumer only ===============================

  // The oldest published frame, or null when the ring is empty.
  const std::byte* Front() {
    const std::uint32_t head = cursors_->wire_head.ReadRelaxed();
    if (head == cursors_->tail_cache) {
      // Acquire pairs with the producer's tail Publish (orders the frames).
      cursors_->tail_cache = cursors_->wire_tail.Read();
      if (head == cursors_->tail_cache) {
        return nullptr;
      }
    }
    return Frame(head);
  }

  // Releases the Front() frame back to the producer.
  FLIPC_ROLE_ENGINE void Pop() {
    FLIPC_HOT_PATH("SpscFrameRingView::Pop");
    // Release orders the consumer's reads of the frame before any reuse.
    cursors_->wire_head.Publish(cursors_->wire_head.ReadRelaxed() + 1);
  }

  // Whether every frame the consumer has seen is popped. A producer that
  // found the ring full stops at its tail, so the consumer passes this
  // point once the ring has room again: the place to wake that producer.
  bool Drained() const {
    return cursors_->wire_head.ReadRelaxed() == cursors_->tail_cache;
  }

  // ========================= Introspection (either) ========================

  // Published frames not yet popped (exact for the consumer; a racy
  // snapshot for anyone else).
  std::uint32_t PendingCount() const {
    return cursors_->wire_tail.Read() - cursors_->wire_head.Read();
  }

 private:
  std::byte* Frame(std::uint32_t pos) const { return frames_ + (pos & mask_) * stride_; }

  SpscCursors* cursors_ = nullptr;
  std::byte* frames_ = nullptr;
  std::size_t stride_ = 0;
  std::uint32_t mask_ = 0;
  std::uint32_t capacity_ = 0;
};

// Owning ring for unit tests and benchmarks; the fabric carves its rings
// out of one allocation instead.
template <std::uint32_t kCapacity, std::size_t kFrameBytes>
class InlineSpscFrameRing {
  static_assert(kCapacity >= 2 && (kCapacity & (kCapacity - 1)) == 0,
                "capacity must be a power of two");

 public:
  static constexpr std::size_t kStride = AlignUp(kFrameBytes, kCacheLineSize);

  InlineSpscFrameRing() : view_(&cursors_, frames_, kCapacity, kStride) {
    cursors_.DeclareOwners();
  }

  ~InlineSpscFrameRing() {
    // Declarations are keyed by address; drop them before the heap reuses
    // this storage.
    UndeclareCellRange(this, sizeof(*this));
  }

  SpscFrameRingView& view() { return view_; }

 private:
  SpscCursors cursors_{};
  alignas(kCacheLineSize) std::byte frames_[kCapacity * kStride];
  SpscFrameRingView view_;
};

}  // namespace flipc::waitfree

#endif  // SRC_WAITFREE_SPSC_RING_H_
