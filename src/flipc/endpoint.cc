#include "src/flipc/endpoint.h"

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

  bool released;
  if (locked) {
    ScopedLock<TasLock> guard(rec.lock);
    released = ReleaseAndCount(buffer.index(), expected);
  } else {
    released = ReleaseAndCount(buffer.index(), expected);
  }
  if (!released) {
    return UnavailableStatus();  // Queue full: application resource control.
  }

  if (expected == EndpointType::kSend) {
    domain_->TraceApi(TraceEvent::kApiSend, index_, buffer.index());
    {
      // Kicking the engine out of its idle park is a host-thread artifact
      // (one load, plus a lock and a notify when the engine is parked); on
      // the Paragon the engine is a co-processor that is simply running.
      // Not a Paragon-path cost.
      FLIPC_HOT_PATH_EXEMPT("engine kick: host-thread parking artifact");
      domain_->KickEngine();
    }
  } else {
    domain_->TraceApi(TraceEvent::kApiPostBuffer, index_, buffer.index());
  }
  return OkStatus();
}

bool Endpoint::ReleaseAndCount(waitfree::BufferIndex buffer, EndpointType expected) {
  shm::CommBuffer& comm = domain_->comm();
  shm::TelemetryBlock& telemetry = comm.telemetry(index_);
  if (!comm.queue(index_).Release(buffer)) {
    telemetry.RecordReleaseRejected();
    return false;
  }
  if (expected == EndpointType::kSend) {
    // Ring the doorbell so the engine's planner schedules this endpoint
    // without a full scan. Sequenced after the queue Release above, so the
    // engine's acquire of the doorbell also observes the released buffer.
    // A full ring raises the overflow signal instead (the engine answers
    // with a sweep); either way the send already succeeded — doorbells are
    // hints. The ring's slot claim is the only read-modify-write on the
    // lock-free API path.
    const bool rang = comm.doorbell_ring().Ring(index_);
    telemetry.RecordApiSend();
    telemetry.RecordDoorbell(rang);
  } else {
    telemetry.RecordApiPost();
  }
  return true;
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
  waitfree::BufferIndex index;
  if (locked) {
    ScopedLock<TasLock> guard(rec.lock);
    index = AcquireAndCount(expected);
  } else {
    index = AcquireAndCount(expected);
  }
  if (index == waitfree::kInvalidBuffer) {
    return UnavailableStatus();
  }
  domain_->TraceApi(expected == EndpointType::kReceive ? TraceEvent::kApiReceive
                                                       : TraceEvent::kApiReclaim,
                    index_, index);
  return MessageBuffer(index, domain_->comm().msg(index));
}

waitfree::BufferIndex Endpoint::AcquireAndCount(EndpointType expected) {
  shm::CommBuffer& comm = domain_->comm();
  const waitfree::BufferIndex index = comm.queue(index_).Acquire();
  if (index == waitfree::kInvalidBuffer) {
    return index;
  }
  if (expected == EndpointType::kReceive) {
    comm.telemetry(index_).RecordApiReceive();
  } else {
    comm.telemetry(index_).RecordApiReclaim();
  }
  return index;
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
