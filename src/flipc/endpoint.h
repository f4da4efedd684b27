// Endpoint: the application's handle to a send or receive endpoint.
//
// The interface mirrors the paper's Figure 2 message-transfer steps:
//
//   1. receiver PostBuffer()  — provide a buffer to receive into
//   2. sender   Send()        — queue a message buffer for the engine
//   3.          (messaging engine transfers the message)
//   4. receiver Receive()     — remove the delivered message
//   5. sender   Reclaim()     — recover the sent buffer for reuse
//
// Send/receive interactions are symmetric: both queue a buffer for the
// engine (release) and later collect it back (acquire).
//
// Every operation has two variants, exactly as the paper's implementation
// grew them while tuning on the Paragon:
//   * the default (locked) variant takes the endpoint's test-and-set lock
//     so multiple application threads can share the endpoint;
//   * the *Unlocked variant skips the lock — for "applications whose
//     structure ensures that at most one thread will access each endpoint".
//     (All of the paper's reported measurements use these.)
//
// Blocking variants use the endpoint's real-time semaphore: the awakened
// thread is handed to the scheduler rather than run from an interrupt.
#ifndef SRC_FLIPC_ENDPOINT_H_
#define SRC_FLIPC_ENDPOINT_H_

#include <cstdint>

#include "src/base/hotpath.h"
#include "src/base/status.h"
#include "src/flipc/message_buffer.h"
#include "src/shm/address.h"
#include "src/shm/endpoint_record.h"
#include "src/simos/real_time_semaphore.h"

namespace flipc {

class Domain;

// Every operation below executes on the APPLICATION side of the protection
// boundary; the FLIPC_ROLE_APP annotations are the roots from which the
// static protocol auditor (tools/flipc_static_audit) proves that all
// comm-buffer writes reachable from here touch application-owned words only.
class Endpoint {
 public:
  Endpoint() = default;

  bool valid() const { return domain_ != nullptr; }
  std::uint32_t index() const { return index_; }
  shm::EndpointType type() const;

  // The opaque address receivers hand to senders.
  Address address() const;

  // ---- Sender operations (send endpoints) ----

  // Step 2: queues `buffer` for delivery to `dst`. kUnavailable when the
  // endpoint's queue is full (resource control is the application's job).
  FLIPC_ROLE_APP Status Send(MessageBuffer& buffer, Address dst);
  FLIPC_ROLE_APP Status SendUnlocked(MessageBuffer& buffer, Address dst);

  // Step 5: recovers the oldest sent buffer once the engine is done with
  // it. kUnavailable when none has completed yet.
  FLIPC_ROLE_APP Result<MessageBuffer> Reclaim();
  FLIPC_ROLE_APP Result<MessageBuffer> ReclaimUnlocked();
  FLIPC_ROLE_APP Result<MessageBuffer> ReclaimBlocking(simos::Priority priority = simos::kMinPriority,
                                        DurationNs timeout_ns = -1);

  // ---- Receiver operations (receive endpoints) ----

  // Step 1: posts a buffer for the engine to receive into.
  FLIPC_ROLE_APP Status PostBuffer(MessageBuffer& buffer);
  FLIPC_ROLE_APP Status PostBufferUnlocked(MessageBuffer& buffer);

  // Step 4: removes the oldest delivered message. kUnavailable when no
  // message has arrived.
  FLIPC_ROLE_APP Result<MessageBuffer> Receive();
  FLIPC_ROLE_APP Result<MessageBuffer> ReceiveUnlocked();
  FLIPC_ROLE_APP Result<MessageBuffer> ReceiveBlocking(simos::Priority priority = simos::kMinPriority,
                                        DurationNs timeout_ns = -1);

  // ---- Resource accounting ----

  // Messages discarded at this endpoint because no buffer was posted
  // (wait-free dual-location counter; reset cannot lose events).
  FLIPC_ROLE_APP std::uint64_t DropCount() const;
  FLIPC_ROLE_APP std::uint64_t ReadAndResetDrops();

  // Buffers the application has queued and not yet collected back.
  FLIPC_ROLE_APP std::uint32_t QueuedCount() const;
  // Completed buffers ready for Receive()/Reclaim().
  FLIPC_ROLE_APP std::uint32_t ReadyCount() const;
  std::uint32_t queue_capacity() const;

  FLIPC_ROLE_APP std::uint64_t ProcessedCount() const;

  friend bool operator==(const Endpoint& a, const Endpoint& b) {
    return a.domain_ == b.domain_ && a.index_ == b.index_;
  }

 private:
  friend class Domain;
  friend class EndpointGroup;

  Endpoint(Domain* domain, std::uint32_t index) : domain_(domain), index_(index) {}

  shm::EndpointRecord& record() const;

  Status ReleaseCommon(MessageBuffer& buffer, Address dst, shm::EndpointType expected,
                       bool locked);
  Result<MessageBuffer> AcquireCommon(shm::EndpointType expected, bool locked);
  // The queue operation and its telemetry. The locked variants run these
  // under the endpoint lock: the counters are single-writer cells, so
  // threads sharing an endpoint must serialize their increments too.
  bool ReleaseAndCount(waitfree::BufferIndex buffer, shm::EndpointType expected);
  waitfree::BufferIndex AcquireAndCount(shm::EndpointType expected);
  Result<MessageBuffer> AcquireBlocking(shm::EndpointType expected, simos::Priority priority,
                                        DurationNs timeout_ns);

  Domain* domain_ = nullptr;
  std::uint32_t index_ = 0;
};

}  // namespace flipc

#endif  // SRC_FLIPC_ENDPOINT_H_
