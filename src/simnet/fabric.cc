#include "src/simnet/fabric.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "src/base/hotpath.h"

namespace flipc::simnet {

// ============================== Fault plan ===================================

std::string_view FaultEventKindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kLinkDown:
      return "link-down";
    case FaultEvent::Kind::kNodeDown:
      return "node-down";
    case FaultEvent::Kind::kPartition:
      return "partition";
    case FaultEvent::Kind::kRandomDrop:
      return "random-drop";
    case FaultEvent::Kind::kDelay:
      return "delay";
  }
  return "unknown";
}

std::string FormatFaultLog(const std::vector<FaultEvent>& events) {
  std::string out;
  out.reserve(events.size() * 64);
  char line[128];
  for (const FaultEvent& e : events) {
    std::snprintf(line, sizeof(line),
                  "t=%lld src=%u dst=%u seq=%llu kind=%s delay=%lld\n",
                  static_cast<long long>(e.time), e.src, e.dst,
                  static_cast<unsigned long long>(e.seq),
                  std::string(FaultEventKindName(e.kind)).c_str(),
                  static_cast<long long>(e.delay_ns));
    out += line;
  }
  return out;
}

// ============================== SimFabric ====================================

class SimFabric::SimWire final : public Wire {
 public:
  SimWire(SimFabric& fabric, NodeId node) : fabric_(fabric), node_(node) {}

  Status Send(Packet packet) override {
    // The discrete-event machinery (an owning event closure per packet, the
    // inbox deque) stands in for the interconnect; it allocates by design.
    FLIPC_HOT_PATH_EXEMPT("DES machinery: simulated interconnect event queue");
    packet.src_node = node_;
    return fabric_.SendFrom(node_, std::move(packet));
  }

  bool Poll(Packet* out) override {
    if (inbox_.empty()) {
      return false;
    }
    *out = std::move(inbox_.front());
    inbox_.pop_front();
    return true;
  }

  std::size_t PendingCount() const override { return inbox_.size(); }
  NodeId node() const override { return node_; }

  void Deliver(Packet packet) {
    inbox_.push_back(std::move(packet));
    if (delivery_callback_) {
      delivery_callback_();
    }
  }

  void SetDeliveryCallback(std::function<void()> callback) {
    delivery_callback_ = std::move(callback);
  }

 private:
  SimFabric& fabric_;
  NodeId node_;
  std::deque<Packet> inbox_;
  std::function<void()> delivery_callback_;
};

SimFabric::SimFabric(Simulator& sim, std::unique_ptr<LinkModel> link_model,
                     std::uint32_t node_count, Options options)
    : sim_(sim),
      link_model_(std::move(link_model)),
      options_(std::move(options)),
      plan_rng_(options_.fault_plan.seed),
      link_free_at_(node_count, 0),
      last_arrival_(static_cast<std::size_t>(node_count) * node_count, 0) {
  wires_.reserve(node_count);
  for (NodeId n = 0; n < node_count; ++n) {
    wires_.push_back(std::make_unique<SimWire>(*this, n));
  }
}

SimFabric::~SimFabric() = default;

Wire& SimFabric::wire(NodeId node) { return *wires_[node]; }

void SimFabric::SetDeliveryCallback(NodeId node, std::function<void()> callback) {
  wires_[node]->SetDeliveryCallback(std::move(callback));
}

bool SimFabric::ApplyFaultPlan(NodeId src, NodeId dst, std::uint64_t seq,
                               DurationNs* extra_delay) {
  const FaultPlan& plan = options_.fault_plan;
  const TimeNs now = sim_.Now();
  const auto in_window = [now](TimeNs start, TimeNs end) {
    return start <= now && now < end;
  };
  const auto log = [&](FaultEvent::Kind kind, DurationNs delay = 0) {
    fault_events_.push_back({now, src, dst, seq, kind, delay});
  };

  // Deterministic rules first (they consume no randomness): node outages,
  // then partitions, then link rules in list order.
  for (const FaultPlan::NodeFault& fault : plan.nodes) {
    if ((fault.node == src || fault.node == dst) && in_window(fault.start, fault.end)) {
      log(FaultEvent::Kind::kNodeDown);
      return true;
    }
  }
  for (const FaultPlan::Partition& partition : plan.partitions) {
    if (!in_window(partition.start, partition.end)) {
      continue;
    }
    const auto inside = [&partition](NodeId node) {
      return std::find(partition.island.begin(), partition.island.end(), node) !=
             partition.island.end();
    };
    if (inside(src) != inside(dst)) {
      log(FaultEvent::Kind::kPartition);
      return true;
    }
  }
  DurationNs delay = 0;
  for (const FaultPlan::LinkFault& fault : plan.links) {
    const bool src_match = fault.src == FaultPlan::kAnyNode || fault.src == src;
    const bool dst_match = fault.dst == FaultPlan::kAnyNode || fault.dst == dst;
    if (!src_match || !dst_match || !in_window(fault.start, fault.end)) {
      continue;
    }
    if (fault.down || fault.drop_probability >= 1.0) {
      log(FaultEvent::Kind::kLinkDown);
      return true;
    }
    // The seeding contract: exactly one draw per matching probabilistic
    // rule, in rule order — probabilities of exactly 0 draw nothing.
    if (fault.drop_probability > 0.0 && plan_rng_.Chance(fault.drop_probability)) {
      log(FaultEvent::Kind::kRandomDrop);
      return true;
    }
    delay += fault.extra_delay_ns;
  }
  if (delay > 0) {
    log(FaultEvent::Kind::kDelay, delay);
    *extra_delay += delay;
  }
  return false;
}

Status SimFabric::SendFrom(NodeId src, Packet packet) {
  if (packet.dst_node >= node_count()) {
    return NotFoundStatus();
  }
  const std::uint64_t seq = packets_sent_;
  ++packets_sent_;
  bytes_sent_ += packet.wire_size();

  DurationNs fault_delay = 0;
  if (!options_.fault_plan.Empty() &&
      ApplyFaultPlan(src, packet.dst_node, seq, &fault_delay)) {
    ++packets_dropped_;
    return OkStatus();  // Silent loss, as a faulty interconnect would be.
  }

  const std::size_t wire_bytes = packet.wire_size();
  const TimeNs depart = std::max(sim_.Now(), link_free_at_[src]);
  const DurationNs serialization = link_model_->SerializationNs(src, packet.dst_node, wire_bytes);
  link_free_at_[src] = depart + serialization;

  TimeNs arrive = depart + serialization +
                  link_model_->TransitNs(src, packet.dst_node, wire_bytes) + fault_delay;
  TimeNs& last = last_arrival_[static_cast<std::size_t>(src) * node_count() + packet.dst_node];
  if (arrive <= last) {
    arrive = last + 1;  // Preserve per-(src,dst) FIFO delivery order.
  }
  last = arrive;

  SimWire* dst_wire = wires_[packet.dst_node].get();
  sim_.ScheduleAt(arrive, [dst_wire, p = std::move(packet)]() mutable {
    dst_wire->Deliver(std::move(p));
  });
  return OkStatus();
}

// ============================= ThreadFabric ==================================

namespace {

// A packet as it sits in a ring slot: this header, then `size` payload
// bytes. The ring itself names the source and destination nodes.
struct FrameHeader {
  std::uint64_t seq;
  std::uint32_t protocol;
  std::uint32_t src_addr;
  std::uint32_t dst_addr;
  std::uint32_t kind;
  std::uint32_t size;
};

}  // namespace

class ThreadFabric::ThreadWire final : public Wire {
 public:
  ThreadWire(ThreadFabric& fabric, NodeId node) : fabric_(fabric), node_(node) {}

  // Runs on the source node's engine: one copy into the (node_, dst) ring.
  Status Send(Packet packet) override {
    if (packet.dst_node >= fabric_.node_count_) {
      return NotFoundStatus();
    }
    const std::size_t size = packet.payload.size();
    if (size > fabric_.frame_bytes_) {
      return InvalidArgumentStatus();  // Larger than the fabric's frame.
    }
    waitfree::SpscFrameRingView ring = fabric_.ring(node_, packet.dst_node);
    std::byte* frame = ring.TryReserve();
    if (frame == nullptr) {
      return UnavailableStatus();  // Ring full: back-pressure, retry later.
    }
    const FrameHeader header{packet.seq, packet.protocol, packet.src_addr, packet.dst_addr,
                             packet.kind, static_cast<std::uint32_t>(size)};
    std::memcpy(frame, &header, sizeof(header));
    std::memcpy(frame + sizeof(header), packet.payload.data(), size);
    ring.Commit();
    const std::function<void()>& delivered = fabric_.wires_[packet.dst_node].delivery_callback_;
    if (delivered) {
      delivered();
    }
    return OkStatus();
  }

  // Runs on this node's engine: one copy out of the next non-empty inbound
  // ring, visiting sources round-robin (each ring keeps its pair's FIFO).
  bool Poll(Packet* out) override {
    const std::uint32_t n = fabric_.node_count_;
    FLIPC_BOUNDED_BY(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const NodeId src = next_source_;
      next_source_ = src + 1 < n ? src + 1 : 0;
      waitfree::SpscFrameRingView ring = fabric_.ring(src, node_);
      const std::byte* frame = ring.Front();
      if (frame == nullptr) {
        continue;
      }
      FrameHeader header;
      std::memcpy(&header, frame, sizeof(header));
      out->seq = header.seq;
      out->src_node = src;
      out->dst_node = node_;
      out->protocol = header.protocol;
      out->src_addr = header.src_addr;
      out->dst_addr = header.dst_addr;
      out->kind = header.kind;
      out->payload.assign(frame + sizeof(header), frame + sizeof(header) + header.size);
      ring.Pop();
      if (ring.Drained()) {
        // The source's engine may be parked on this ring, full when it
        // last looked; its wake reads the park flag after the Pop above,
        // pairing with the park's barrier and re-check of BackPressured.
        const std::function<void()>& wake_source = fabric_.wires_[src].delivery_callback_;
        if (wake_source) {
          wake_source();
        }
      }
      return true;
    }
    return false;
  }

  bool BackPressured(NodeId dst) const override {
    return dst < fabric_.node_count_ && fabric_.ring(node_, dst).NoRoom();
  }

  std::size_t PendingCount() const override {
    std::size_t pending = 0;
    for (NodeId src = 0; src < fabric_.node_count_; ++src) {
      pending += fabric_.ring(src, node_).PendingCount();
    }
    return pending;
  }

  NodeId node() const override { return node_; }

  // Wakes this node's engine: fired by senders after each packet into its
  // rings, and by consumers when they drain one of its outbound rings; set
  // before traffic starts.
  std::function<void()> delivery_callback_;

 private:
  ThreadFabric& fabric_;
  NodeId node_;
  NodeId next_source_ = 0;  // consumer-private round-robin position
};

ThreadFabric::ThreadFabric(std::uint32_t node_count)
    : ThreadFabric(node_count, kDefaultFrameBytes) {}

ThreadFabric::ThreadFabric(std::uint32_t node_count, std::uint32_t frame_bytes)
    : node_count_(node_count),
      frame_bytes_(frame_bytes),
      stride_(AlignUp(sizeof(FrameHeader) + frame_bytes, kCacheLineSize)) {
  const std::size_t ring_count = static_cast<std::size_t>(node_count) * node_count;
  const std::size_t cursor_bytes = ring_count * sizeof(waitfree::SpscCursors);
  ring_storage_bytes_ = cursor_bytes + ring_count * kRingDepth * stride_;
  // Default-initialized bytes: only the cursors are written below.
  ring_storage_.reset(new std::byte[ring_storage_bytes_ + kCacheLineSize]);
  std::byte* base = reinterpret_cast<std::byte*>(
      AlignUp(reinterpret_cast<std::uintptr_t>(ring_storage_.get()), kCacheLineSize));
  cursors_ = reinterpret_cast<waitfree::SpscCursors*>(base);
  std::uninitialized_value_construct_n(cursors_, ring_count);
  frames_ = base + cursor_bytes;
  if constexpr (waitfree::kBoundaryCheckEnabled) {
    for (std::size_t i = 0; i < ring_count; ++i) {
      cursors_[i].DeclareOwners();
    }
  }
  wires_.reserve(node_count);
  for (NodeId n = 0; n < node_count; ++n) {
    wires_.emplace_back(*this, n);
  }
}

ThreadFabric::~ThreadFabric() {
  // The detector keys declarations by address; drop them before the heap
  // can hand this storage to an unrelated object.
  waitfree::UndeclareCellRange(ring_storage_.get(), ring_storage_bytes_ + kCacheLineSize);
}

waitfree::SpscFrameRingView ThreadFabric::ring(NodeId src, NodeId dst) const {
  const std::size_t i = static_cast<std::size_t>(src) * node_count_ + dst;
  return waitfree::SpscFrameRingView(&cursors_[i], frames_ + i * kRingDepth * stride_, kRingDepth,
                                     stride_);
}

Wire& ThreadFabric::wire(NodeId node) { return wires_[node]; }

void ThreadFabric::SetDeliveryCallback(NodeId node, std::function<void()> callback) {
  wires_[node].delivery_callback_ = std::move(callback);
}

}  // namespace flipc::simnet
