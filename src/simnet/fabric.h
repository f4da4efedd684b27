// Fabrics: the interconnect a messaging engine sends packets through.
//
// A Fabric owns one Wire per node. Wires are reliable and preserve order
// between each (source, destination) node pair — the property FLIPC's
// optimistic transport depends on ("a reliable transport that preserves
// order for messages sent from the same source endpoint to the same
// destination endpoint"). Two implementations:
//
//   * SimFabric    — discrete-event simulated; delivery times come from a
//     LinkModel, sends serialize at the source interface, and an optional
//     fault injector can drop packets (used only by tests probing how the
//     layers above would misbehave on an unreliable interconnect).
//   * ThreadFabric — real-concurrency, for the examples, the stress tests and
//     the host-time benchmark. One wait-free SPSC ring of fixed-size frames
//     per (source, destination) node pair (src/waitfree/spsc_ring.h): a
//     send is a copy into the pair's ring, a poll a copy out, with no lock
//     and no allocation. A full ring back-pressures: Send returns
//     kUnavailable without delivering, and the sender waits (parked, if
//     idle otherwise) until the consumer drains the ring and wakes it.
#ifndef SRC_SIMNET_FABRIC_H_
#define SRC_SIMNET_FABRIC_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/simnet/des.h"
#include "src/simnet/link_model.h"
#include "src/simnet/packet.h"
#include "src/waitfree/spsc_ring.h"

namespace flipc::simnet {

class Wire {
 public:
  virtual ~Wire() = default;

  // Queues a packet for transmission. src_node is filled in by the wire.
  // kUnavailable means the wire is back-pressured: nothing was sent, and
  // the same packet may be sent again later. Any other error is final.
  virtual Status Send(Packet packet) = 0;

  // Retrieves the next delivered packet, if any.
  virtual bool Poll(Packet* out) = 0;

  // Number of packets delivered and waiting.
  virtual std::size_t PendingCount() const = 0;

  // Whether a Send to `dst` would be back-pressured right now. Only this
  // node's engine asks; it leaves such sends out of its plan and HasWork
  // until the wire wakes it. A wire that never back-pressures keeps this.
  virtual bool BackPressured(NodeId /*dst*/) const { return false; }

  virtual NodeId node() const = 0;
};

class Fabric {
 public:
  virtual ~Fabric() = default;

  virtual std::uint32_t node_count() const = 0;
  virtual Wire& wire(NodeId node) = 0;

  // Registers a callback fired when a packet is delivered to `node`
  // (used by engine drivers to wake an idle engine). Register callbacks
  // before traffic starts.
  virtual void SetDeliveryCallback(NodeId node, std::function<void()> callback) = 0;
};

// ----------------------------------------------------------------------------

// A seeded, DES-scheduled failure-injection plan for SimFabric.
//
// FLIPC assumes a reliable interconnect; the fault plan exists so tests can
// probe how the layers above misbehave when that assumption is violated —
// and prove that runs replay bit-identically.
//
// Seeding contract (the determinism tests depend on every clause):
//   * All fabric randomness comes from ONE xoshiro generator seeded with
//     `seed` at fabric construction. A uniform random loss is an any->any
//     LinkFault with that drop_probability.
//   * The generator advances exactly once per probabilistic decision: one
//     draw per matching LinkFault whose drop_probability is in (0, 1),
//     evaluated in rule-list order, per SendFrom call. Deterministic rules
//     — down links, node-down windows, partitions, probabilities of
//     exactly 0 or 1, and delays — consume NO randomness.
//   * SendFrom calls occur in discrete-event order, which the simulator
//     makes deterministic, so the same plan driving the same workload
//     yields a byte-identical fault-event log (FormatFaultLog).
// Corollary: editing the rule list (even reordering entries) legitimately
// changes the draw sequence and therefore the log.
struct FaultPlan {
  static constexpr NodeId kAnyNode = kInvalidNode;  // wildcard endpoint match

  // Per-link fault, active while start <= Now() < end at send time.
  struct LinkFault {
    NodeId src = kAnyNode;
    NodeId dst = kAnyNode;
    TimeNs start = 0;
    TimeNs end = kTimeNever;
    bool down = false;              // drop every matching packet
    double drop_probability = 0.0;  // else drop with this probability
    DurationNs extra_delay_ns = 0;  // surviving packets arrive this much later
  };

  // Node off the fabric (both directions) during the window.
  struct NodeFault {
    NodeId node = 0;
    TimeNs start = 0;
    TimeNs end = kTimeNever;
  };

  // Network partition: packets crossing the island boundary (in either
  // direction) are dropped during the window; traffic wholly inside or
  // wholly outside the island is untouched.
  struct Partition {
    std::vector<NodeId> island;
    TimeNs start = 0;
    TimeNs end = kTimeNever;
  };

  std::uint64_t seed = 1;
  std::vector<LinkFault> links;
  std::vector<NodeFault> nodes;
  std::vector<Partition> partitions;

  bool Empty() const { return links.empty() && nodes.empty() && partitions.empty(); }
};

// One entry in the fabric's fault-event log (kept only while the plan is
// non-empty; test machinery, not a product path).
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kLinkDown = 0,   // dropped by a down LinkFault
    kNodeDown = 1,   // dropped by a NodeFault window
    kPartition = 2,  // dropped crossing a partition island boundary
    kRandomDrop = 3, // dropped by a probabilistic LinkFault draw
    kDelay = 4,      // delivered, but delayed by extra_delay_ns
  };
  TimeNs time = 0;          // virtual send time
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t seq = 0;    // fabric-wide send ordinal
  Kind kind = Kind::kRandomDrop;
  DurationNs delay_ns = 0;  // kDelay: total extra delay applied
};

std::string_view FaultEventKindName(FaultEvent::Kind kind);

// Canonical one-line-per-event serialization. Two runs of the same seeded
// plan over the same workload produce byte-identical strings — the
// determinism tests compare exactly this.
std::string FormatFaultLog(const std::vector<FaultEvent>& events);

class SimFabric final : public Fabric {
 public:
  struct Options {
    // Scheduled fault injection (drops, delays, outages, partitions); an
    // empty plan (the default) leaves the fabric perfectly reliable and
    // keeps the fault log empty.
    FaultPlan fault_plan;
  };

  SimFabric(Simulator& sim, std::unique_ptr<LinkModel> link_model, std::uint32_t node_count)
      : SimFabric(sim, std::move(link_model), node_count, Options()) {}
  SimFabric(Simulator& sim, std::unique_ptr<LinkModel> link_model, std::uint32_t node_count,
            Options options);
  ~SimFabric() override;

  std::uint32_t node_count() const override { return static_cast<std::uint32_t>(wires_.size()); }
  Wire& wire(NodeId node) override;
  void SetDeliveryCallback(NodeId node, std::function<void()> callback) override;

  const LinkModel& link_model() const { return *link_model_; }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_dropped_by_fabric() const { return packets_dropped_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  // The fault-event log (empty unless the fault plan is non-empty).
  const std::vector<FaultEvent>& fault_events() const { return fault_events_; }
  void ClearFaultEvents() { fault_events_.clear(); }

 private:
  class SimWire;

  Status SendFrom(NodeId src, Packet packet);

  // Evaluates the fault plan for a packet sent now. Returns true when the
  // packet is dropped (the event has been logged); otherwise adds any
  // matching delays to *extra_delay and logs one kDelay event if non-zero.
  bool ApplyFaultPlan(NodeId src, NodeId dst, std::uint64_t seq,
                      DurationNs* extra_delay);

  Simulator& sim_;
  std::unique_ptr<LinkModel> link_model_;
  Options options_;
  Rng plan_rng_;
  std::vector<FaultEvent> fault_events_;

  std::vector<std::unique_ptr<SimWire>> wires_;
  // Time each source interface becomes free (sends serialize).
  std::vector<TimeNs> link_free_at_;
  // Last delivery time per (src, dst) to enforce FIFO even if a later,
  // smaller packet would otherwise overtake.
  std::vector<TimeNs> last_arrival_;

  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

// ----------------------------------------------------------------------------

class ThreadFabric final : public Fabric {
 public:
  // Frames per (source, destination) ring. One ring holds a whole
  // inline_path burst (32) and a stream window (64).
  static constexpr std::uint32_t kRingDepth = 64;
  // Largest payload ThreadFabric(n) carries: a 64-byte FLIPC message.
  static constexpr std::uint32_t kDefaultFrameBytes = 64;

  explicit ThreadFabric(std::uint32_t node_count);
  // `frame_bytes` bounds the payload of one packet (a Cluster passes its
  // message size); Send rejects a larger payload with kInvalidArgument.
  ThreadFabric(std::uint32_t node_count, std::uint32_t frame_bytes);
  ~ThreadFabric() override;

  std::uint32_t node_count() const override { return node_count_; }
  Wire& wire(NodeId node) override;
  void SetDeliveryCallback(NodeId node, std::function<void()> callback) override;

 private:
  class ThreadWire;

  // The (src, dst) ring: a view over its slice of the shared storage.
  waitfree::SpscFrameRingView ring(NodeId src, NodeId dst) const;

  std::uint32_t node_count_;
  std::uint32_t frame_bytes_;
  std::size_t stride_;
  // One allocation holds every ring, [src * n + dst]: the cursor blocks
  // (the only ring state the constructor writes), then the frames,
  // untouched until traffic reaches them.
  std::unique_ptr<std::byte[]> ring_storage_;
  std::size_t ring_storage_bytes_ = 0;
  waitfree::SpscCursors* cursors_ = nullptr;
  std::byte* frames_ = nullptr;
  std::vector<ThreadWire> wires_;
};

}  // namespace flipc::simnet

#endif  // SRC_SIMNET_FABRIC_H_
