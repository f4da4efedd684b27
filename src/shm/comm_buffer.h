// The communication buffer (paper Figure 1, center).
//
// "The communication buffer is the focal point of FLIPC. It is located in
// shared memory accessible to both the application(s) and the messaging
// engine, and it contains all of the memory resources used for messaging."
//
// The buffer is a single fixed-size contiguous region whose internal
// references are all offsets/indices (never raw pointers), so the same bytes
// can be mapped by an application process and by the messaging engine (here:
// another thread, a DES actor, or a process sharing a POSIX shm segment).
// Nothing in it is ever paged, grown, or relocated after creation — the
// paper fixes its size and the message size "at boot time".
//
// Region layout (all offsets cache-line aligned):
//
//   [CommBufferHeader]   identity + application-side allocation state
//   [EndpointRecord x max_endpoints]
//   [TelemetryBlock x max_endpoints]   per-endpoint counters (app/engine lines)
//   [cell arena]         queue cells, carved out per endpoint at allocation
//   [buffer free list]   application-side singly linked free list
//   [doorbell ring]      cursors + MPSC ring of endpoint indices rung on send
//   [message buffers]    buffer_count x message_size bytes
//
// Allocation (buffers, endpoints, arena cells) is an application-side
// activity guarded by a test-and-set lock in the header; the engine never
// allocates, so allocation needs no wait-free treatment.
#ifndef SRC_SHM_COMM_BUFFER_H_
#define SRC_SHM_COMM_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/base/hotpath.h"
#include "src/base/locks.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/shm/endpoint_record.h"
#include "src/shm/msg_header.h"
#include "src/shm/telemetry_block.h"
#include "src/waitfree/buffer_queue.h"
#include "src/waitfree/doorbell_ring.h"

namespace flipc::shm {

using waitfree::BufferIndex;
using waitfree::kInvalidBuffer;

inline constexpr std::uint32_t kInvalidEndpoint = 0xffffffffu;

// Paper constraints for the Paragon: messages at least 64 bytes and a
// multiple of 32 (DMA requirement); 8 bytes reserved for the internal
// header.
inline constexpr std::uint32_t kMinMessageSize = 64;
inline constexpr std::uint32_t kMessageSizeMultiple = 32;

struct CommBufferConfig {
  // Fixed message size in bytes, including the 8-byte internal header.
  std::uint32_t message_size = 128;
  // Number of message buffers in the region.
  std::uint32_t buffer_count = 1024;
  // Endpoint table size.
  std::uint32_t max_endpoints = 64;
  // Total queue cells available to endpoints; 0 means 4 * buffer_count.
  std::uint32_t cell_arena_size = 0;
  // Doorbell ring slots (power of two); 0 derives a capacity that
  // covers every in-flight send release (bounded by buffer_count), clamped
  // to [64, 4096].
  std::uint32_t doorbell_capacity = 0;

  std::uint32_t effective_cell_arena_size() const {
    return cell_arena_size == 0 ? 4 * buffer_count : cell_arena_size;
  }

  std::uint32_t effective_doorbell_capacity() const {
    if (doorbell_capacity != 0) {
      return doorbell_capacity;
    }
    const std::uint32_t target =
        buffer_count < 64 ? 64 : (buffer_count > 4096 ? 4096 : buffer_count);
    std::uint32_t capacity = 64;
    while (capacity < target) {
      capacity <<= 1;
    }
    return capacity;
  }

  Status Validate() const;
};

struct CommBufferLayout {
  std::size_t endpoint_table_offset = 0;
  std::size_t telemetry_offset = 0;
  std::size_t cell_arena_offset = 0;
  std::size_t freelist_offset = 0;
  std::size_t doorbell_offset = 0;
  std::size_t buffers_offset = 0;
  std::size_t total_size = 0;

  static Result<CommBufferLayout> For(const CommBufferConfig& config);
};

// In-region header. Identity fields are written once at creation; the
// allocation block is application-side state guarded by alloc_lock.
struct alignas(kCacheLineSize) CommBufferHeader {
  // ---- Identity (immutable after creation) ----
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t message_size;
  std::uint32_t buffer_count;
  std::uint32_t max_endpoints;
  std::uint32_t cell_arena_size;
  std::uint32_t doorbell_capacity;
  std::uint64_t endpoint_table_offset;
  std::uint64_t telemetry_offset;
  std::uint64_t cell_arena_offset;
  std::uint64_t freelist_offset;
  std::uint64_t doorbell_offset;
  std::uint64_t buffers_offset;
  std::uint64_t total_size;

  // ---- Application-side allocation state ----
  alignas(kCacheLineSize) TasLock alloc_lock;
  std::uint32_t free_head;        // guarded by alloc_lock; kInvalidBuffer if empty
  std::uint32_t free_count;       // guarded by alloc_lock
  std::uint32_t cells_used;       // guarded by alloc_lock (bump allocator)
  std::uint32_t endpoints_active; // guarded by alloc_lock
};

inline constexpr std::uint64_t kCommBufferMagic = 0x464c495043313936ull;  // "FLIPC196"
// Version 2 added the doorbell ring section (doorbell_capacity,
// doorbell_offset, and the cursors + cells between the free list and the
// message buffers). Version 3 added the per-endpoint telemetry table
// (telemetry_offset and one TelemetryBlock per endpoint slot between the
// endpoint table and the cell arena). Version 4 split the engine into
// several planners per node (undone by version 7).
// Version 5 added the QoS planner cells on the endpoint config line
// (qos_class, deadline_ns, bucket_capacity, bucket_refill_ns,
// alloc_generation) and three engine-side QoS counters on the telemetry
// block (deadline_misses, max_service_gap_ns, throttle_deferrals).
// Version 6 removed the scan-priority and minimum-send-interval cells from
// the endpoint config line (priority is qos_class/deadline_ns; a send
// interval is a token bucket of capacity 1).
// Version 7 returned to one messaging engine per node: the header's planner
// geometry, the per-planner doorbell sections (one ring remains) and the
// endpoint record's owning-planner cell are gone.
// Version 8 made the doorbell ring exact: a producer claims a slot only
// below full (a compare-exchange on ring_tail), and overflow_rung is an
// atomic increment. A version-7 producer can still overshoot a full ring
// and overwrite a slot the engine has not consumed.
inline constexpr std::uint32_t kCommBufferVersion = 8;

class CommBuffer {
 public:
  // Allocates a fresh region and formats it.
  static Result<std::unique_ptr<CommBuffer>> Create(const CommBufferConfig& config);

  // Formats caller-owned memory (e.g. a POSIX shm mapping). `base` must be
  // cache-line aligned and at least CommBufferLayout::For(config).total_size
  // bytes. The returned CommBuffer does not own the memory.
  FLIPC_ROLE_QUIESCENT static Result<std::unique_ptr<CommBuffer>> Format(void* base, std::size_t size,
                                                    const CommBufferConfig& config);

  // Attaches to memory already formatted by Format()/Create() (validates the
  // magic, version and layout). Does not own the memory.
  static Result<std::unique_ptr<CommBuffer>> Attach(void* base, std::size_t size);

  ~CommBuffer();
  CommBuffer(const CommBuffer&) = delete;
  CommBuffer& operator=(const CommBuffer&) = delete;

  const CommBufferHeader& header() const { return *header_; }
  std::byte* base() { return base_; }
  std::size_t total_size() const { return header_->total_size; }
  std::uint32_t message_size() const { return header_->message_size; }
  std::uint32_t payload_size() const {
    return header_->message_size - static_cast<std::uint32_t>(kMsgHeaderSize);
  }
  std::uint32_t buffer_count() const { return header_->buffer_count; }
  std::uint32_t max_endpoints() const { return header_->max_endpoints; }

  // ---- Message buffers (application side) ----
  FLIPC_ROLE_APP Result<BufferIndex> AllocateBuffer();
  FLIPC_ROLE_APP Status FreeBuffer(BufferIndex index);
  std::uint32_t FreeBufferCount();

  // View of a buffer; callers must pass a valid index.
  MsgView msg(BufferIndex index) {
    MsgView view;
    std::byte* start = buffers_ + static_cast<std::size_t>(index) * message_size_;
    view.header = reinterpret_cast<MsgHeader*>(start);
    view.payload = start + kMsgHeaderSize;
    view.payload_size = message_size_ - static_cast<std::uint32_t>(kMsgHeaderSize);
    return view;
  }

  bool IsValidBufferIndex(BufferIndex index) const {
    return index < header_->buffer_count;
  }

  // ---- Endpoints (application side) ----
  struct EndpointParams {
    EndpointType type = EndpointType::kReceive;
    std::uint32_t queue_capacity = 16;  // power of two
    std::uint32_t options = kEndpointOptNone;
    std::uint32_t semaphore_id = kNoSemaphore;
    // Packed Address of the only permitted destination (send endpoints);
    // 0xffffffff = unrestricted.
    std::uint32_t allowed_peer = 0xffffffffu;
    // QoS planner (DESIGN.md §15): weighted service class [0, 3].
    std::uint32_t qos_class = 0;
    // Relative per-message deadline in ns; 0 = not real-time.
    std::uint32_t deadline_ns = 0;
    // Token-bucket burst capacity in messages; 0 = bucket disabled, 1 = a
    // minimum send interval of bucket_refill_ns.
    std::uint32_t bucket_capacity = 0;
    // Ns to refill one token; meaningful only with bucket_capacity > 0.
    std::uint32_t bucket_refill_ns = 0;
  };

  FLIPC_ROLE_QUIESCENT Result<std::uint32_t> AllocateEndpoint(const EndpointParams& params);

  // The endpoint's queue must be empty (all buffers acquired back).
  FLIPC_ROLE_QUIESCENT Status FreeEndpoint(std::uint32_t index);

  EndpointRecord& endpoint(std::uint32_t index) { return endpoint_table_[index]; }
  const EndpointRecord& endpoint(std::uint32_t index) const { return endpoint_table_[index]; }

  bool IsValidEndpointIndex(std::uint32_t index) const {
    return index < header_->max_endpoints;
  }

  // Queue view bound to an endpoint's cursors and cells.
  waitfree::BufferQueueView queue(std::uint32_t endpoint_index) {
    EndpointRecord& record = endpoint_table_[endpoint_index];
    return waitfree::BufferQueueView(&record.release_count, &record.acquire_count,
                                     &record.process_count,
                                     cell_arena_ + record.cells_offset.ReadRelaxed(),
                                     record.queue_capacity.ReadRelaxed());
  }

  // View of the send doorbell ring (the application rings, the engine
  // drains).
  waitfree::DoorbellRingView doorbell_ring() const { return doorbell_ring_; }
  std::uint32_t doorbell_capacity() const { return header_->doorbell_capacity; }

  // Per-endpoint telemetry. Reads need no role; writes go through the
  // Record* helpers under the matching boundary role.
  TelemetryBlock& telemetry(std::uint32_t index) { return telemetry_table_[index]; }
  const TelemetryBlock& telemetry(std::uint32_t index) const { return telemetry_table_[index]; }

 private:
  CommBuffer(std::byte* base, bool owns);

  FLIPC_ROLE_QUIESCENT void FormatRegion(const CommBufferConfig& config, const CommBufferLayout& layout);

  // Registers every single-writer cell in the region (endpoint records and
  // the queue-cell arena) with the ownership race detector, per the tables
  // in src/shm/ownership_layout.h. Called at format and attach time; no-op
  // unless FLIPC_CHECK_SINGLE_WRITER.
  void DeclareBoundaryOwners();

  // Resolves the section pointers below from the header's offsets, once
  // the header is formatted or validated. The header's identity block is
  // immutable after creation, so the accessors never reread it.
  void ResolveSections();

  std::byte* base_ = nullptr;
  CommBufferHeader* header_ = nullptr;
  bool owns_ = false;

  EndpointRecord* endpoint_table_ = nullptr;
  TelemetryBlock* telemetry_table_ = nullptr;
  waitfree::SingleWriterCell<BufferIndex>* cell_arena_ = nullptr;
  std::uint32_t* freelist_ = nullptr;
  waitfree::DoorbellCursors* doorbell_cursors_ = nullptr;
  waitfree::SingleWriterCell<std::uint64_t>* doorbell_cells_ = nullptr;
  std::byte* buffers_ = nullptr;
  std::uint32_t message_size_ = 0;
  waitfree::DoorbellRingView doorbell_ring_;
};

}  // namespace flipc::shm

#endif  // SRC_SHM_COMM_BUFFER_H_
