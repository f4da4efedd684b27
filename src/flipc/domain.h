// Domain: one node's FLIPC instance — the application interface layer over
// a communication buffer (paper Figure 1, left box: "application interface
// layer that provides formal interfaces to applications and hides the data
// structures in the communication buffer").
//
// A Domain owns (or attaches to) the communication buffer and knows how to
// kick the messaging engine that shares it. It does NOT own the engine:
// the engine is an independently executing component (a thread, a DES
// driver, or in principle real controller firmware) wired up by the
// embedding code — see Cluster/SimCluster for ready-made assemblies.
#ifndef SRC_FLIPC_DOMAIN_H_
#define SRC_FLIPC_DOMAIN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "src/base/clock.h"
#include "src/base/hotpath.h"
#include "src/base/status.h"
#include "src/base/thread_annotations.h"
#include "src/base/trace.h"
#include "src/base/types.h"
#include "src/flipc/endpoint.h"
#include "src/flipc/message_buffer.h"
#include "src/shm/comm_buffer.h"
#include "src/simos/semaphore_table.h"

namespace flipc {

class EndpointGroup;

// Per-domain API call counts, kept to reproduce the paper's future-work
// observation that "a FLIPC application can expect to employ about half of
// its calls to FLIPC to send or receive messages, and the other half for
// message buffer management" (experiment E11). A snapshot (Domain::calls()).
struct CallCounters {
  std::uint64_t sends = 0;
  std::uint64_t receives = 0;
  std::uint64_t buffer_posts = 0;
  std::uint64_t buffer_reclaims = 0;
  std::uint64_t buffer_allocs = 0;
  std::uint64_t buffer_frees = 0;

  std::uint64_t MessagingCalls() const { return sends + receives; }
  std::uint64_t BufferManagementCalls() const {
    return buffer_posts + buffer_reclaims + buffer_allocs + buffer_frees;
  }
};

class Domain {
 public:
  struct Options {
    shm::CommBufferConfig comm;
    NodeId node = 0;  // must fit 16 bits (packed addresses)
  };

  // Creates a domain with a freshly allocated communication buffer.
  // `semaphores` backs the blocking operations; it may be null if no
  // endpoint ever uses them.
  static Result<std::unique_ptr<Domain>> Create(const Options& options,
                                                simos::SemaphoreTable* semaphores = nullptr);

  ~Domain();
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  shm::CommBuffer& comm() { return *comm_; }
  NodeId node() const { return node_; }
  std::uint32_t payload_size() const { return comm_->payload_size(); }

  // Wires the engine wake-up: called after operations that create engine
  // work (sends). Typically EngineRunner::Kick or SimEngineDriver::Kick.
  void SetEngineKick(std::function<void()> kick) { kick_ = std::move(kick); }
  void KickEngine() {
    if (kick_) {
      kick_();
    }
  }

  // ---- Message buffer management ----
  FLIPC_ROLE_APP Result<MessageBuffer> AllocateBuffer();
  FLIPC_ROLE_APP Status FreeBuffer(MessageBuffer buffer);
  // Rebuilds a handle from an index (e.g. one passed between threads).
  Result<MessageBuffer> BufferFromIndex(waitfree::BufferIndex index);

  // ---- Endpoints ----
  struct EndpointOptions {
    shm::EndpointType type = shm::EndpointType::kReceive;
    std::uint32_t queue_depth = 16;  // power of two
    // Allocate a real-time semaphore so blocking operations work.
    bool enable_semaphore = false;
    // Membership: share the group's semaphore and be scanned by its
    // Receive()/ReceiveBlocking(). Implies semaphore signaling.
    EndpointGroup* group = nullptr;
    // Protection extension: restrict this send endpoint to one destination
    // (engine-enforced, so an untrusted application cannot spray other
    // applications' endpoints). Invalid = unrestricted.
    Address allowed_peer = Address::Invalid();
    // QoS planner (DESIGN.md §15): weighted service class 0..3. When
    // several classes hold backlog, the engine's deficit-weighted planner
    // shares transmissions proportionally to the per-class weights
    // configured on the engine.
    std::uint32_t qos_class = 0;
    // Relative per-message deadline, ns from when the engine first sees
    // the message backlogged. Nonzero marks the endpoint real-time:
    // earliest-deadline-first within its class, deadline-miss accounting
    // in telemetry. 0 = not real-time.
    std::uint32_t deadline_ns = 0;
    // Capacity-control extension, an engine-enforced token bucket: burst
    // capacity in messages. 0 = no bucket; 1 = a minimum send interval of
    // bucket_refill_ns.
    std::uint32_t bucket_capacity = 0;
    // ns to refill one bucket token; 0 with nonzero capacity means the
    // bucket never refills (hard burst cap).
    std::uint32_t bucket_refill_ns = 0;
  };

  FLIPC_ROLE_QUIESCENT Result<Endpoint> CreateEndpoint(const EndpointOptions& options);

  // Frees the endpoint (its queue must be drained) and its semaphore.
  FLIPC_ROLE_QUIESCENT Status DestroyEndpoint(Endpoint& endpoint);

  // Churn teardown (DESIGN.md §14): reclaims every buffer the engine has
  // already completed (Reclaim on send endpoints, Receive on receive
  // endpoints), frees them, then destroys the endpoint. Returns
  // DestroyEndpoint's kUnavailable while the engine still owns released
  // buffers — callers quiescing under load retry until the engine drains.
  // A receive endpoint with posted-but-undelivered buffers can never drain
  // this way (there is no un-post primitive); direct exactly-counted
  // traffic at it or tear down the whole domain instead.
  FLIPC_ROLE_QUIESCENT Status QuiesceAndDestroyEndpoint(Endpoint& endpoint);

  simos::SemaphoreTable* semaphores() { return semaphores_; }
  // The API call counts so far. Sends, receives, posts and reclaims are
  // the live endpoints' telemetry counters (TelemetryBlock api_*) plus what
  // destroyed endpoints had counted, so the API path keeps no second
  // counter; exact whenever no API call runs concurrently.
  CallCounters calls() const;

  // Application-side flight recorder: successful API operations append the
  // kApi* events. The ring is caller-owned and process-local (it holds
  // host pointers, so it cannot live in the comm buffer). A null clock
  // stamps 0 — the cheapest option, and the default so tracing never adds
  // a clock read to the hot path unless the caller asks for one.
  void SetTrace(TraceRing* trace, const Clock* clock = nullptr) {
    trace_ = trace;
    trace_clock_ = clock;
  }
  TraceRing* trace() { return trace_; }
  void TraceApi(TraceEvent event, std::uint32_t a, std::uint64_t b = 0) {
    if (trace_ != nullptr) {
      trace_->Record(trace_clock_ != nullptr ? trace_clock_->NowNs() : 0, event, a, b);
    }
  }

 private:
  friend class Endpoint;
  friend class EndpointGroup;

  Domain(std::unique_ptr<shm::CommBuffer> comm, NodeId node,
         simos::SemaphoreTable* semaphores);

  // Group-owned semaphores must not be freed when a member endpoint is
  // destroyed; EndpointGroup registers its semaphore here.
  void RegisterGroupSemaphore(std::uint32_t id);
  void UnregisterGroupSemaphore(std::uint32_t id);

  std::unique_ptr<shm::CommBuffer> comm_;
  NodeId node_;
  simos::SemaphoreTable* semaphores_;
  std::function<void()> kick_;
  // What calls() cannot read from live telemetry: the API counts of
  // destroyed endpoints (a reused slot's telemetry restarts at zero), and
  // buffer allocations and frees. Slow-path, relaxed statistics.
  std::atomic<std::uint64_t> retired_sends_{0};
  std::atomic<std::uint64_t> retired_receives_{0};
  std::atomic<std::uint64_t> retired_posts_{0};
  std::atomic<std::uint64_t> retired_reclaims_{0};
  std::atomic<std::uint64_t> buffer_allocs_{0};
  std::atomic<std::uint64_t> buffer_frees_{0};
  TraceRing* trace_ = nullptr;
  const Clock* trace_clock_ = nullptr;

  std::mutex group_mutex_;
  std::unordered_set<std::uint32_t> group_semaphores_
      FLIPC_GUARDED_BY(group_mutex_);
};

}  // namespace flipc

#endif  // SRC_FLIPC_DOMAIN_H_
