#include "src/flipc/domain.h"

#include <utility>

#include "src/flipc/endpoint_group.h"

namespace flipc {

Domain::Domain(std::unique_ptr<shm::CommBuffer> comm, NodeId node,
               simos::SemaphoreTable* semaphores)
    : comm_(std::move(comm)), node_(node), semaphores_(semaphores) {}

Domain::~Domain() = default;

Result<std::unique_ptr<Domain>> Domain::Create(const Options& options,
                                               simos::SemaphoreTable* semaphores) {
  if (options.node > 0xffffu) {
    return InvalidArgumentStatus();  // Addresses pack the node into 16 bits.
  }
  FLIPC_ASSIGN_OR_RETURN(std::unique_ptr<shm::CommBuffer> comm,
                         shm::CommBuffer::Create(options.comm));
  return std::unique_ptr<Domain>(new Domain(std::move(comm), options.node, semaphores));
}

Result<MessageBuffer> Domain::AllocateBuffer() {
  FLIPC_ASSIGN_OR_RETURN(const waitfree::BufferIndex index, comm_->AllocateBuffer());
  buffer_allocs_.fetch_add(1, std::memory_order_relaxed);
  return MessageBuffer(index, comm_->msg(index));
}

Status Domain::FreeBuffer(MessageBuffer buffer) {
  if (!buffer.valid()) {
    return InvalidArgumentStatus();
  }
  buffer_frees_.fetch_add(1, std::memory_order_relaxed);
  return comm_->FreeBuffer(buffer.index());
}

CallCounters Domain::calls() const {
  CallCounters calls;
  calls.sends = retired_sends_.load(std::memory_order_relaxed);
  calls.receives = retired_receives_.load(std::memory_order_relaxed);
  calls.buffer_posts = retired_posts_.load(std::memory_order_relaxed);
  calls.buffer_reclaims = retired_reclaims_.load(std::memory_order_relaxed);
  calls.buffer_allocs = buffer_allocs_.load(std::memory_order_relaxed);
  calls.buffer_frees = buffer_frees_.load(std::memory_order_relaxed);
  const shm::CommBuffer& comm = *comm_;
  for (std::uint32_t i = 0; i < comm.max_endpoints(); ++i) {
    if (!comm.endpoint(i).IsActive()) {
      continue;
    }
    const shm::TelemetryBlock& telemetry = comm.telemetry(i);
    calls.sends += telemetry.api_sends.Read();
    calls.receives += telemetry.api_receives.Read();
    calls.buffer_posts += telemetry.api_posts.Read();
    calls.buffer_reclaims += telemetry.api_reclaims.Read();
  }
  return calls;
}

Result<MessageBuffer> Domain::BufferFromIndex(waitfree::BufferIndex index) {
  if (!comm_->IsValidBufferIndex(index)) {
    return InvalidArgumentStatus();
  }
  return MessageBuffer(index, comm_->msg(index));
}

Result<Endpoint> Domain::CreateEndpoint(const EndpointOptions& options) {
  shm::CommBuffer::EndpointParams params;
  params.type = options.type;
  params.queue_capacity = options.queue_depth;
  params.allowed_peer = options.allowed_peer.packed();
  params.qos_class = options.qos_class;
  params.deadline_ns = options.deadline_ns;
  params.bucket_capacity = options.bucket_capacity;
  params.bucket_refill_ns = options.bucket_refill_ns;

  bool owns_semaphore = false;
  if (options.group != nullptr) {
    params.options |= shm::kEndpointOptSemaphore;
    params.semaphore_id = options.group->semaphore_id();
  } else if (options.enable_semaphore) {
    if (semaphores_ == nullptr) {
      return FailedPreconditionStatus();
    }
    FLIPC_ASSIGN_OR_RETURN(params.semaphore_id, semaphores_->Allocate());
    params.options |= shm::kEndpointOptSemaphore;
    owns_semaphore = true;
  }

  Result<std::uint32_t> index = comm_->AllocateEndpoint(params);
  if (!index.ok()) {
    if (owns_semaphore) {
      (void)semaphores_->Free(params.semaphore_id);
    }
    return index.status();
  }

  Endpoint endpoint(this, *index);
  if (options.group != nullptr) {
    options.group->AddMember(endpoint);
  }
  return endpoint;
}

Status Domain::DestroyEndpoint(Endpoint& endpoint) {
  if (!endpoint.valid() || endpoint.domain_ != this) {
    return InvalidArgumentStatus();
  }
  const shm::EndpointRecord& record = comm_->endpoint(endpoint.index());
  const bool had_semaphore =
      (record.options.ReadRelaxed() & shm::kEndpointOptSemaphore) != 0;
  const std::uint32_t semaphore_id = record.semaphore_id.ReadRelaxed();
  // Read before the free: once the slot is inactive, a CreateEndpoint may
  // reuse it and reset its telemetry.
  const shm::TelemetryBlock& telemetry = comm_->telemetry(endpoint.index());
  const std::uint64_t sends = telemetry.api_sends.Read();
  const std::uint64_t receives = telemetry.api_receives.Read();
  const std::uint64_t posts = telemetry.api_posts.Read();
  const std::uint64_t reclaims = telemetry.api_reclaims.Read();

  FLIPC_RETURN_IF_ERROR(comm_->FreeEndpoint(endpoint.index()));
  retired_sends_.fetch_add(sends, std::memory_order_relaxed);
  retired_receives_.fetch_add(receives, std::memory_order_relaxed);
  retired_posts_.fetch_add(posts, std::memory_order_relaxed);
  retired_reclaims_.fetch_add(reclaims, std::memory_order_relaxed);

  // Group semaphores are owned by their EndpointGroup; a group member must
  // be removed from the group before destruction, at which point Free here
  // fails harmlessly with waiters or succeeds. Individually owned
  // semaphores are freed best-effort (waiters keep it alive).
  bool group_owned;
  {
    ScopedLock<std::mutex> guard(group_mutex_);
    group_owned = group_semaphores_.contains(semaphore_id);
  }
  if (had_semaphore && semaphores_ != nullptr && !group_owned) {
    (void)semaphores_->Free(semaphore_id);
  }
  endpoint = Endpoint();
  return OkStatus();
}

Status Domain::QuiesceAndDestroyEndpoint(Endpoint& endpoint) {
  if (!endpoint.valid() || endpoint.domain_ != this) {
    return InvalidArgumentStatus();
  }
  const bool is_send = endpoint.type() == shm::EndpointType::kSend;
  for (;;) {
    Result<MessageBuffer> buffer = is_send ? endpoint.Reclaim() : endpoint.Receive();
    if (!buffer.ok()) {
      break;  // Nothing acquirable now; what remains is the engine's.
    }
    FLIPC_RETURN_IF_ERROR(FreeBuffer(*buffer));
  }
  return DestroyEndpoint(endpoint);
}

void Domain::RegisterGroupSemaphore(std::uint32_t id) {
  ScopedLock<std::mutex> guard(group_mutex_);
  group_semaphores_.insert(id);
}

void Domain::UnregisterGroupSemaphore(std::uint32_t id) {
  ScopedLock<std::mutex> guard(group_mutex_);
  group_semaphores_.erase(id);
}

}  // namespace flipc
