#include "src/flipc/endpoint.h"

#include <mutex>

#include "src/base/clock.h"
#include "src/base/hotpath.h"
#include "src/flipc/domain.h"
#include "src/waitfree/boundary_check.h"
#include "src/waitfree/msg_state.h"

namespace flipc {

using shm::EndpointType;
using waitfree::MsgState;

shm::EndpointRecord& Endpoint::record() const { return domain_->comm().endpoint(index_); }

shm::EndpointType Endpoint::type() const { return record().Type(); }

Address Endpoint::address() const {
  return Address(static_cast<std::uint16_t>(domain_->node()),
                 static_cast<std::uint16_t>(index_));
}

Status Endpoint::ReleaseCommon(MessageBuffer& buffer, Address dst, EndpointType expected,
                               bool locked) {
  if (!valid() || !buffer.valid()) {
    return InvalidArgumentStatus();
  }
  // This call body is the application side of the protection boundary;
  // scoped so a thread that also drives a simulated engine is re-labeled
  // only for the duration (no-op unless FLIPC_CHECK_SINGLE_WRITER).
  waitfree::ScopedBoundaryRole boundary_role(waitfree::Writer::kApplication);
  shm::EndpointRecord& rec = record();
  if (rec.Type() != expected) {
    return FailedPreconditionStatus();
  }
  // The lock-free variants carry the wait-freedom obligation from here on
  // (validation above may take slow paths); the locked variants share this
  // body but pay the TasLock by contract, so their scope stays unarmed.
  FLIPC_HOT_PATH_IF(!locked, expected == EndpointType::kSend
                                 ? "Endpoint::SendUnlocked"
                                 : "Endpoint::PostBufferUnlocked");
  if (expected == EndpointType::kSend) {
    if (!dst.valid()) {
      return InvalidArgumentStatus();
    }
    buffer.header()->set_peer_address(dst);
  }
  buffer.header()->state.Store(MsgState::kReady);

  waitfree::BufferQueueView queue = domain_->comm().queue(index_);
  bool released;
  if (locked) {
    ScopedLock<TasLock> guard(rec.lock);
    released = queue.Release(buffer.index());
  } else {
    released = queue.Release(buffer.index());
  }
  shm::TelemetryBlock& telemetry = domain_->comm().telemetry(index_);
  if (!released) {
    telemetry.RecordReleaseRejected();
    return UnavailableStatus();  // Queue full: application resource control.
  }

  if (expected == EndpointType::kSend) {
    // Ring the doorbell so the engine's planner schedules this endpoint
    // without a full scan. Sequenced after the queue Release
    // above, so the engine's acquire of the doorbell also observes the
    // released buffer. A full ring raises the overflow signal instead (the
    // engine answers with a sweep); either way the send already succeeded —
    // doorbells are hints.
    const bool rang = domain_->comm().doorbell_ring().Ring(index_);
    telemetry.RecordApiSend();
    telemetry.RecordDoorbell(rang);
    domain_->TraceApi(TraceEvent::kApiSend, index_, buffer.index());
    domain_->calls().sends.fetch_add(1, std::memory_order_relaxed);
    {
      // Kicking the engine out of its idle park is a host-thread artifact
      // (a fence and a load, plus a lock and a notify when the engine is
      // parked); on the Paragon the engine is a co-processor that is simply
      // running. Not a Paragon-path cost.
      FLIPC_HOT_PATH_EXEMPT("engine kick: host-thread parking artifact");
      domain_->KickEngine();
    }
  } else {
    telemetry.RecordApiPost();
    domain_->TraceApi(TraceEvent::kApiPostBuffer, index_, buffer.index());
    domain_->calls().buffer_posts.fetch_add(1, std::memory_order_relaxed);
  }
  return OkStatus();
}

Result<MessageBuffer> Endpoint::AcquireCommon(EndpointType expected, bool locked) {
  if (!valid()) {
    return InvalidArgumentStatus();
  }
  waitfree::ScopedBoundaryRole boundary_role(waitfree::Writer::kApplication);
  shm::EndpointRecord& rec = record();
  if (rec.Type() != expected) {
    return FailedPreconditionStatus();
  }
  FLIPC_HOT_PATH_IF(!locked, expected == EndpointType::kReceive
                                 ? "Endpoint::ReceiveUnlocked"
                                 : "Endpoint::ReclaimUnlocked");
  waitfree::BufferQueueView queue = domain_->comm().queue(index_);
  waitfree::BufferIndex index;
  if (locked) {
    ScopedLock<TasLock> guard(rec.lock);
    index = queue.Acquire();
  } else {
    index = queue.Acquire();
  }
  if (index == waitfree::kInvalidBuffer) {
    return UnavailableStatus();
  }
  shm::TelemetryBlock& telemetry = domain_->comm().telemetry(index_);
  if (expected == EndpointType::kReceive) {
    telemetry.RecordApiReceive();
    domain_->TraceApi(TraceEvent::kApiReceive, index_, index);
    domain_->calls().receives.fetch_add(1, std::memory_order_relaxed);
  } else {
    telemetry.RecordApiReclaim();
    domain_->TraceApi(TraceEvent::kApiReclaim, index_, index);
    domain_->calls().buffer_reclaims.fetch_add(1, std::memory_order_relaxed);
  }
  return MessageBuffer(index, domain_->comm().msg(index));
}

Result<MessageBuffer> Endpoint::AcquireBlocking(EndpointType expected, simos::Priority priority,
                                                DurationNs timeout_ns) {
  shm::EndpointRecord& rec = record();
  if ((rec.options.ReadRelaxed() & shm::kEndpointOptSemaphore) == 0 ||
      domain_->semaphores() == nullptr) {
    return FailedPreconditionStatus();
  }
  simos::RealTimeSemaphore* semaphore =
      domain_->semaphores()->Get(rec.semaphore_id.ReadRelaxed());
  if (semaphore == nullptr) {
    return InternalStatus();
  }

  const TimeNs deadline =
      timeout_ns < 0 ? kTimeNever : RealClock::Instance().NowNs() + timeout_ns;
  FLIPC_UNBOUNDED_WAIT("blocking receive: parks on the endpoint semaphore");
  for (;;) {
    Result<MessageBuffer> result = AcquireCommon(expected, /*locked=*/true);
    if (result.ok() || result.status().code() != StatusCode::kUnavailable) {
      return result;
    }
    DurationNs remaining = -1;
    if (deadline != kTimeNever) {
      remaining = deadline - RealClock::Instance().NowNs();
      if (remaining <= 0) {
        return TimedOutStatus();
      }
    }
    const Status wait_status = semaphore->Wait(priority, remaining);
    if (!wait_status.ok()) {
      return wait_status;
    }
  }
}

Status Endpoint::Send(MessageBuffer& buffer, Address dst) {
  return ReleaseCommon(buffer, dst, EndpointType::kSend, /*locked=*/true);
}

Status Endpoint::SendUnlocked(MessageBuffer& buffer, Address dst) {
  return ReleaseCommon(buffer, dst, EndpointType::kSend, /*locked=*/false);
}

Result<MessageBuffer> Endpoint::Reclaim() {
  return AcquireCommon(EndpointType::kSend, /*locked=*/true);
}

Result<MessageBuffer> Endpoint::ReclaimUnlocked() {
  return AcquireCommon(EndpointType::kSend, /*locked=*/false);
}

Result<MessageBuffer> Endpoint::ReclaimBlocking(simos::Priority priority, DurationNs timeout_ns) {
  return AcquireBlocking(EndpointType::kSend, priority, timeout_ns);
}

Status Endpoint::PostBuffer(MessageBuffer& buffer) {
  return ReleaseCommon(buffer, Address::Invalid(), EndpointType::kReceive, /*locked=*/true);
}

Status Endpoint::PostBufferUnlocked(MessageBuffer& buffer) {
  return ReleaseCommon(buffer, Address::Invalid(), EndpointType::kReceive, /*locked=*/false);
}

Result<MessageBuffer> Endpoint::Receive() {
  return AcquireCommon(EndpointType::kReceive, /*locked=*/true);
}

Result<MessageBuffer> Endpoint::ReceiveUnlocked() {
  return AcquireCommon(EndpointType::kReceive, /*locked=*/false);
}

Result<MessageBuffer> Endpoint::ReceiveBlocking(simos::Priority priority, DurationNs timeout_ns) {
  return AcquireBlocking(EndpointType::kReceive, priority, timeout_ns);
}

std::uint64_t Endpoint::DropCount() const { return record().DropCount(); }

std::uint64_t Endpoint::ReadAndResetDrops() {
  waitfree::ScopedBoundaryRole boundary_role(waitfree::Writer::kApplication);
  FLIPC_HOT_PATH("Endpoint::ReadAndResetDrops");
  return record().ReadAndResetDrops();
}

std::uint32_t Endpoint::QueuedCount() const {
  return domain_->comm().queue(index_).Size();
}

std::uint32_t Endpoint::ReadyCount() const {
  return domain_->comm().queue(index_).AcquirableCount();
}

std::uint32_t Endpoint::queue_capacity() const {
  return record().queue_capacity.ReadRelaxed();
}

std::uint64_t Endpoint::ProcessedCount() const { return record().processed_total.Read(); }

}  // namespace flipc
