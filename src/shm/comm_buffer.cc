#include "src/shm/comm_buffer.h"

#include <cstring>
#include <mutex>
#include <new>

#include "src/base/log.h"
#include "src/shm/ownership_layout.h"
#include "src/waitfree/boundary_check.h"

namespace flipc::shm {

Status CommBufferConfig::Validate() const {
  if (message_size < kMinMessageSize || message_size % kMessageSizeMultiple != 0) {
    return InvalidArgumentStatus();
  }
  if (buffer_count == 0 || buffer_count >= kInvalidBuffer) {
    return InvalidArgumentStatus();
  }
  if (max_endpoints == 0 || max_endpoints > 0xffffu) {
    // Endpoint indices must fit the 16-bit field of a packed Address.
    return InvalidArgumentStatus();
  }
  if (effective_cell_arena_size() == 0) {
    return InvalidArgumentStatus();
  }
  if (doorbell_capacity != 0 &&
      (doorbell_capacity < 2 || !IsPowerOfTwo(doorbell_capacity))) {
    return InvalidArgumentStatus();
  }
  return OkStatus();
}

Result<CommBufferLayout> CommBufferLayout::For(const CommBufferConfig& config) {
  FLIPC_RETURN_IF_ERROR(config.Validate());
  CommBufferLayout layout;
  std::size_t offset = AlignUp(sizeof(CommBufferHeader), kCacheLineSize);
  layout.endpoint_table_offset = offset;
  offset += static_cast<std::size_t>(config.max_endpoints) * sizeof(EndpointRecord);
  layout.telemetry_offset = AlignUp(offset, kCacheLineSize);
  offset = layout.telemetry_offset +
           static_cast<std::size_t>(config.max_endpoints) * sizeof(TelemetryBlock);
  layout.cell_arena_offset = AlignUp(offset, kCacheLineSize);
  offset = layout.cell_arena_offset +
           static_cast<std::size_t>(config.effective_cell_arena_size()) *
               sizeof(waitfree::SingleWriterCell<BufferIndex>);
  layout.freelist_offset = AlignUp(offset, kCacheLineSize);
  offset = layout.freelist_offset +
           static_cast<std::size_t>(config.buffer_count) * sizeof(std::uint32_t);
  layout.doorbell_offset = AlignUp(offset, kCacheLineSize);
  offset = layout.doorbell_offset + sizeof(waitfree::DoorbellCursors) +
           static_cast<std::size_t>(config.effective_doorbell_capacity()) *
               sizeof(waitfree::SingleWriterCell<std::uint64_t>);
  layout.buffers_offset = AlignUp(offset, kCacheLineSize);
  offset = layout.buffers_offset +
           static_cast<std::size_t>(config.buffer_count) * config.message_size;
  layout.total_size = AlignUp(offset, kCacheLineSize);
  return layout;
}

CommBuffer::CommBuffer(std::byte* base, bool owns) : base_(base), owns_(owns) {
  header_ = reinterpret_cast<CommBufferHeader*>(base_);
}

CommBuffer::~CommBuffer() {
  // Drop this region's ownership declarations so reused memory cannot
  // inherit them. If another CommBuffer in this process is still attached
  // to the same bytes, its cells merely become unchecked (undeclared cells
  // are skipped, never misreported).
  if (header_ != nullptr && header_->magic == kCommBufferMagic) {
    waitfree::UndeclareCellRange(base_, header_->total_size);
  }
  if (owns_) {
    ::operator delete[](base_, std::align_val_t(kCacheLineSize));
  }
}

Result<std::unique_ptr<CommBuffer>> CommBuffer::Create(const CommBufferConfig& config) {
  FLIPC_ASSIGN_OR_RETURN(const CommBufferLayout layout, CommBufferLayout::For(config));
  auto* raw = static_cast<std::byte*>(
      ::operator new[](layout.total_size, std::align_val_t(kCacheLineSize), std::nothrow));
  if (raw == nullptr) {
    return ResourceExhaustedStatus();
  }
  auto buffer = std::unique_ptr<CommBuffer>(new CommBuffer(raw, /*owns=*/true));
  buffer->FormatRegion(config, layout);
  return buffer;
}

Result<std::unique_ptr<CommBuffer>> CommBuffer::Format(void* base, std::size_t size,
                                                       const CommBufferConfig& config) {
  FLIPC_ASSIGN_OR_RETURN(const CommBufferLayout layout, CommBufferLayout::For(config));
  if (base == nullptr || size < layout.total_size ||
      !IsAligned(reinterpret_cast<std::uintptr_t>(base), kCacheLineSize)) {
    return InvalidArgumentStatus();
  }
  auto buffer = std::unique_ptr<CommBuffer>(
      new CommBuffer(static_cast<std::byte*>(base), /*owns=*/false));
  buffer->FormatRegion(config, layout);
  return buffer;
}

Result<std::unique_ptr<CommBuffer>> CommBuffer::Attach(void* base, std::size_t size) {
  if (base == nullptr || size < sizeof(CommBufferHeader) ||
      !IsAligned(reinterpret_cast<std::uintptr_t>(base), kCacheLineSize)) {
    return InvalidArgumentStatus();
  }
  const auto* header = static_cast<const CommBufferHeader*>(base);
  if (header->magic != kCommBufferMagic || header->version != kCommBufferVersion) {
    return InvalidArgumentStatus();
  }
  if (header->total_size > size) {
    return InvalidArgumentStatus();
  }
  auto buffer = std::unique_ptr<CommBuffer>(
      new CommBuffer(static_cast<std::byte*>(base), /*owns=*/false));
  buffer->ResolveSections();
  // Each process (and each attachment) registers the region's cells with
  // its own ownership-checker registry.
  buffer->DeclareBoundaryOwners();
  return buffer;
}

void CommBuffer::FormatRegion(const CommBufferConfig& config, const CommBufferLayout& layout) {
  std::memset(base_, 0, layout.total_size);

  header_ = new (base_) CommBufferHeader();
  header_->magic = kCommBufferMagic;
  header_->version = kCommBufferVersion;
  header_->message_size = config.message_size;
  header_->buffer_count = config.buffer_count;
  header_->max_endpoints = config.max_endpoints;
  header_->cell_arena_size = config.effective_cell_arena_size();
  header_->doorbell_capacity = config.effective_doorbell_capacity();
  header_->endpoint_table_offset = layout.endpoint_table_offset;
  header_->telemetry_offset = layout.telemetry_offset;
  header_->cell_arena_offset = layout.cell_arena_offset;
  header_->freelist_offset = layout.freelist_offset;
  header_->doorbell_offset = layout.doorbell_offset;
  header_->buffers_offset = layout.buffers_offset;
  header_->total_size = layout.total_size;
  ResolveSections();

  for (std::uint32_t i = 0; i < config.max_endpoints; ++i) {
    new (&endpoint_table_[i]) EndpointRecord();
    new (&telemetry_table_[i]) TelemetryBlock();
  }

  auto* cells = cell_arena_;
  for (std::uint32_t i = 0; i < header_->cell_arena_size; ++i) {
    new (&cells[i]) waitfree::SingleWriterCell<BufferIndex>(kInvalidBuffer);
  }

  // Doorbell ring: zeroed cells carry lap tag 0, which never matches a
  // consumer expectation (tags start at 1), so the ring formats empty.
  new (doorbell_cursors_) waitfree::DoorbellCursors();
  auto* bells = doorbell_cells_;
  for (std::uint32_t i = 0; i < header_->doorbell_capacity; ++i) {
    new (&bells[i]) waitfree::SingleWriterCell<std::uint64_t>(0);
  }

  // Thread the buffer free list: each buffer's freelist slot names the next
  // free buffer.
  auto* next = freelist_;
  for (std::uint32_t i = 0; i < config.buffer_count; ++i) {
    next[i] = (i + 1 < config.buffer_count) ? i + 1 : kInvalidBuffer;
    new (&msg(i).header->state) waitfree::HandoffState();
  }
  header_->free_head = 0;
  header_->free_count = config.buffer_count;
  header_->cells_used = 0;
  header_->endpoints_active = 0;

  DeclareBoundaryOwners();
}

void CommBuffer::DeclareBoundaryOwners() {
  if constexpr (!waitfree::kBoundaryCheckEnabled) {
    return;
  }
  // A reformat invalidates whatever was declared at these addresses before.
  waitfree::UndeclareCellRange(base_, header_->total_size);
  for (std::uint32_t i = 0; i < header_->max_endpoints; ++i) {
    DeclareOwnersFromTable(&endpoint_table_[i], kEndpointRecordOwnership);
    DeclareOwnersFromTable(&telemetry_table_[i], kTelemetryBlockOwnership);
  }
  // Queue cells are written only by the application, at release time; the
  // engine communicates per-buffer completion through the buffer's state
  // field (see src/waitfree/buffer_queue.h).
  auto* cells = cell_arena_;
  for (std::uint32_t i = 0; i < header_->cell_arena_size; ++i) {
    cells[i].DeclareOwner(waitfree::Writer::kApplication, "CommBuffer.cell_arena");
  }
  // Doorbell ring: cursors per the ownership table; every ring cell is
  // written only by the application, at ring time.
  DeclareOwnersFromTable(doorbell_cursors_, kDoorbellCursorsOwnership);
  auto* bells = doorbell_cells_;
  for (std::uint32_t i = 0; i < header_->doorbell_capacity; ++i) {
    bells[i].DeclareOwner(waitfree::Writer::kApplication, "CommBuffer.doorbell_cells");
  }
  // Message headers are NOT declared: their peer/state words hand off
  // between writers with the buffer's queue position. HandoffState's
  // transition check covers them (src/waitfree/msg_state.h).
}

void CommBuffer::ResolveSections() {
  endpoint_table_ = reinterpret_cast<EndpointRecord*>(base_ + header_->endpoint_table_offset);
  telemetry_table_ = reinterpret_cast<TelemetryBlock*>(base_ + header_->telemetry_offset);
  cell_arena_ = reinterpret_cast<waitfree::SingleWriterCell<BufferIndex>*>(
      base_ + header_->cell_arena_offset);
  freelist_ = reinterpret_cast<std::uint32_t*>(base_ + header_->freelist_offset);
  doorbell_cursors_ =
      reinterpret_cast<waitfree::DoorbellCursors*>(base_ + header_->doorbell_offset);
  doorbell_cells_ = reinterpret_cast<waitfree::SingleWriterCell<std::uint64_t>*>(
      base_ + header_->doorbell_offset + sizeof(waitfree::DoorbellCursors));
  buffers_ = base_ + header_->buffers_offset;
  message_size_ = header_->message_size;
  doorbell_ring_ = waitfree::DoorbellRingView(doorbell_cursors_, doorbell_cells_,
                                              header_->doorbell_capacity);
}

Result<BufferIndex> CommBuffer::AllocateBuffer() {
  // Allocation is an application-side activity (the engine never allocates).
  waitfree::ScopedBoundaryRole boundary_role(waitfree::Writer::kApplication);
  ScopedLock<TasLock> guard(header_->alloc_lock);
  if (header_->free_head == kInvalidBuffer) {
    return ResourceExhaustedStatus();
  }
  const BufferIndex index = header_->free_head;
  header_->free_head = freelist_[index];
  --header_->free_count;
  msg(index).header->state.Store(waitfree::MsgState::kFree);
  return index;
}

Status CommBuffer::FreeBuffer(BufferIndex index) {
  if (!IsValidBufferIndex(index)) {
    return InvalidArgumentStatus();
  }
  ScopedLock<TasLock> guard(header_->alloc_lock);
  freelist_[index] = header_->free_head;
  header_->free_head = index;
  ++header_->free_count;
  return OkStatus();
}

std::uint32_t CommBuffer::FreeBufferCount() {
  ScopedLock<TasLock> guard(header_->alloc_lock);
  return header_->free_count;
}

Result<std::uint32_t> CommBuffer::AllocateEndpoint(const EndpointParams& params) {
  if (!IsPowerOfTwo(params.queue_capacity)) {
    return InvalidArgumentStatus();
  }
  if (params.type != EndpointType::kSend && params.type != EndpointType::kReceive) {
    return InvalidArgumentStatus();
  }

  waitfree::ScopedBoundaryRole boundary_role(waitfree::Writer::kApplication);
  ScopedLock<TasLock> guard(header_->alloc_lock);

  // Prefer an inactive record whose prior cell reservation is big enough to
  // reuse; otherwise take any inactive record and extend the arena.
  std::uint32_t chosen = kInvalidEndpoint;
  std::uint32_t fallback = kInvalidEndpoint;
  for (std::uint32_t i = 0; i < header_->max_endpoints; ++i) {
    EndpointRecord& record = endpoint_table_[i];
    if (record.IsActive()) {
      continue;
    }
    if (record.cells_reserved.ReadRelaxed() >= params.queue_capacity) {
      chosen = i;
      break;
    }
    if (fallback == kInvalidEndpoint) {
      fallback = i;
    }
  }
  if (chosen == kInvalidEndpoint) {
    chosen = fallback;
  }
  if (chosen == kInvalidEndpoint) {
    return ResourceExhaustedStatus();
  }

  EndpointRecord& record = endpoint_table_[chosen];
  if (record.cells_reserved.ReadRelaxed() < params.queue_capacity) {
    if (header_->cells_used + params.queue_capacity > header_->cell_arena_size) {
      return ResourceExhaustedStatus();
    }
    record.cells_offset.StoreRelaxed(header_->cells_used);
    record.cells_reserved.StoreRelaxed(params.queue_capacity);
    header_->cells_used += params.queue_capacity;
  }

  record.queue_capacity.StoreRelaxed(params.queue_capacity);
  record.semaphore_id.StoreRelaxed(params.semaphore_id);
  record.options.StoreRelaxed(params.options);
  record.allowed_peer.StoreRelaxed(params.allowed_peer);
  record.qos_class.StoreRelaxed(params.qos_class);
  record.deadline_ns.StoreRelaxed(params.deadline_ns);
  record.bucket_capacity.StoreRelaxed(params.bucket_capacity);
  record.bucket_refill_ns.StoreRelaxed(params.bucket_refill_ns);
  // Bump the slot's allocation generation so the engine discards any
  // throttle/bucket state left by the previous tenant; skipping 0 lets the
  // engine use 0 as "never seen" after a fresh format or recovery.
  {
    std::uint32_t generation = record.alloc_generation.ReadRelaxed() + 1;
    if (generation == 0) {
      generation = 1;
    }
    record.alloc_generation.StoreRelaxed(generation);
  }
  record.release_count.StoreRelaxed(0);
  record.acquire_count.StoreRelaxed(0);
  record.drops_reclaimed.StoreRelaxed(0);
  {
    // Quiescent cross-boundary writes: the engine's cursors are reset by
    // the allocating application thread while the record is still inactive
    // (the engine ignores it until the type publish below). Telemetry is
    // per-slot-lifetime, so both of its halves reset here too.
    waitfree::ScopedBoundaryExemption quiescent_reset;
    record.process_count.StoreRelaxed(0);
    record.drops_total.StoreRelaxed(0);
    record.processed_total.StoreRelaxed(0);
    telemetry_table_[chosen].ResetQuiescent();
  }

  // Publish the type last: the engine treats a non-inactive type as the
  // endpoint being live, and the release-store orders all the setup above.
  record.type.Publish(static_cast<std::uint32_t>(params.type));
  ++header_->endpoints_active;
  return chosen;
}

Status CommBuffer::FreeEndpoint(std::uint32_t index) {
  if (!IsValidEndpointIndex(index)) {
    return InvalidArgumentStatus();
  }
  waitfree::ScopedBoundaryRole boundary_role(waitfree::Writer::kApplication);
  ScopedLock<TasLock> guard(header_->alloc_lock);
  EndpointRecord& record = endpoint_table_[index];
  if (!record.IsActive()) {
    return FailedPreconditionStatus();
  }
  // The queue must be fully drained (every released buffer acquired back),
  // otherwise the engine may still be processing into endpoint buffers.
  if (record.release_count.Read() != record.acquire_count.Read()) {
    return FailedPreconditionStatus();
  }
  record.type.Publish(static_cast<std::uint32_t>(EndpointType::kInactive));
  --header_->endpoints_active;
  // cells_offset / cells_reserved are kept for reuse by a later allocation.
  return OkStatus();
}

}  // namespace flipc::shm
