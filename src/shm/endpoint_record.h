// Endpoint records inside the communication buffer.
//
// Each record is laid out in four cache lines grouped by writer, the
// concrete form of the paper's false-sharing fix ("ensure that concurrent
// writes from the application and messaging engine can never occur in the
// same cache line"):
//
//   line 0 — configuration: written by the application library only while
//            the endpoint is being (de)allocated, read-only to the engine;
//   line 1 — application-written cursors and counters (release, acquire,
//            reclaimed drop count);
//   line 2 — engine-written cursors and counters (process, total drops,
//            processed-message count);
//   line 3 — a test-and-set lock for mutual exclusion among application
//            threads; the engine never touches it (the paper's locked
//            interface variants use it, the lock-free variants skip it).
//
// This grouping is not just documentation: the ownership table in
// src/shm/ownership_layout.h records the writer of every field, a
// static_assert layout lint fails the build if a cache line ever mixes the
// two writers, and in FLIPC_CHECK_SINGLE_WRITER builds each cell is
// registered with the ownership race detector so a cross-boundary write
// aborts at run time (src/waitfree/boundary_check.h). When adding a field,
// place it on its writer's line AND add its table entry.
#ifndef SRC_SHM_ENDPOINT_RECORD_H_
#define SRC_SHM_ENDPOINT_RECORD_H_

#include <cstdint>

#include "src/base/locks.h"
#include "src/base/hotpath.h"
#include "src/base/types.h"
#include "src/waitfree/buffer_queue.h"
#include "src/waitfree/single_writer.h"

namespace flipc::shm {

enum class EndpointType : std::uint32_t {
  kInactive = 0,
  kSend = 1,
  kReceive = 2,
};

// Endpoint option flags (configuration line).
inline constexpr std::uint32_t kEndpointOptNone = 0;
// A semaphore should be signaled when the engine completes processing a
// buffer on this endpoint (receive: message arrived; send: buffer free).
inline constexpr std::uint32_t kEndpointOptSemaphore = 1u << 0;

inline constexpr std::uint32_t kNoSemaphore = 0xffffffffu;

// Number of QoS service classes the engine's planner recognizes
// (DESIGN.md §15). qos_class values at or above this clamp to the top
// class, so a misconfigured record degrades instead of corrupting state.
inline constexpr std::uint32_t kQosClassCount = 4;

struct alignas(kCacheLineSize) EndpointRecord {
  // ---- Line 0: configuration (application-written, quiescent) ----
  waitfree::SingleWriterCell<std::uint32_t> type;            // EndpointType
  waitfree::SingleWriterCell<std::uint32_t> cells_offset;    // index into cell arena
  waitfree::SingleWriterCell<std::uint32_t> queue_capacity;  // power of two
  waitfree::SingleWriterCell<std::uint32_t> cells_reserved;  // arena cells owned
  waitfree::SingleWriterCell<std::uint32_t> semaphore_id;    // kNoSemaphore if none
  waitfree::SingleWriterCell<std::uint32_t> options;
  // Protection (future-work): packed Address this endpoint may send to;
  // 0xffffffff (invalid) means unrestricted. Enforced by the engine.
  waitfree::SingleWriterCell<std::uint32_t> allowed_peer;
  // QoS planner (DESIGN.md §15): weighted service class. Classes 0..3;
  // the planner's deficit-weighted selection gives each class a share of
  // transmissions proportional to its configured weight.
  waitfree::SingleWriterCell<std::uint32_t> qos_class;
  // QoS planner: relative deadline per message, ns after the message
  // becomes processable. 0 means not real-time (no EDF ordering, no
  // deadline-miss accounting).
  waitfree::SingleWriterCell<std::uint32_t> deadline_ns;
  // QoS planner: token-bucket burst capacity in messages. 0 disables the
  // bucket (no rate limit); bucket state is engine-private. Capacity 1 is a
  // minimum send interval of one refill period (capacity control, future
  // work).
  waitfree::SingleWriterCell<std::uint32_t> bucket_capacity;
  // QoS planner: ns to refill one bucket token. 0 with a nonzero capacity
  // means tokens never refill (hard burst cap).
  waitfree::SingleWriterCell<std::uint32_t> bucket_refill_ns;
  // Allocation generation for this slot, bumped on every AllocateEndpoint.
  // The engine compares it against its private copy to detect slot reuse
  // and drop bucket state inherited from the previous tenant — the engine
  // may never observe the transient kInactive window during churn, so a
  // generation tag (not the type cell) is the reliable signal.
  waitfree::SingleWriterCell<std::uint32_t> alloc_generation;

  // ---- Line 1: application-written hot state ----
  alignas(kCacheLineSize) waitfree::SingleWriterCell<std::uint32_t> release_count;
  waitfree::SingleWriterCell<std::uint32_t> acquire_count;
  waitfree::SingleWriterCell<std::uint64_t> drops_reclaimed;

  // ---- Line 2: engine-written hot state ----
  alignas(kCacheLineSize) waitfree::SingleWriterCell<std::uint32_t> process_count;
  waitfree::SingleWriterCell<std::uint64_t> drops_total;
  waitfree::SingleWriterCell<std::uint64_t> processed_total;

  // ---- Line 3: application-thread lock ----
  alignas(kCacheLineSize) TasLock lock;

  EndpointType Type() const { return static_cast<EndpointType>(type.Read()); }
  bool IsActive() const { return Type() != EndpointType::kInactive; }

  // Wait-free dual-location drop counter (see src/waitfree/drop_counter.h);
  // drops_total is the engine-written location, drops_reclaimed the
  // application-written one.
  FLIPC_ROLE_ENGINE void RecordDrop() { drops_total.Publish(drops_total.ReadRelaxed() + 1); }
  std::uint64_t DropCount() const {
    return drops_total.Read() - drops_reclaimed.ReadRelaxed();
  }
  FLIPC_ROLE_APP std::uint64_t ReadAndResetDrops() {
    const std::uint64_t observed = drops_total.Read();
    const std::uint64_t prior = drops_reclaimed.ReadRelaxed();
    drops_reclaimed.Publish(observed);
    return observed - prior;
  }
};
static_assert(sizeof(EndpointRecord) == 4 * kCacheLineSize);
static_assert(alignof(EndpointRecord) == kCacheLineSize);

}  // namespace flipc::shm

#endif  // SRC_SHM_ENDPOINT_RECORD_H_
