#include "src/simnet/fabric.h"

#include "src/base/thread_annotations.h"

#include <algorithm>
#include <cstdio>
#include <utility>

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

class ThreadFabric::ThreadWire final : public Wire {
 public:
  ThreadWire(ThreadFabric& fabric, NodeId node) : fabric_(fabric), node_(node) {}

  Status Send(Packet packet) override {
    packet.src_node = node_;
    if (packet.dst_node >= fabric_.node_count()) {
      return NotFoundStatus();
    }
    ThreadWire& dst = *fabric_.wires_[packet.dst_node];
    std::function<void()> callback;
    {
      ScopedLock<std::mutex> guard(dst.mutex_);
      dst.inbox_.push_back(std::move(packet));
      callback = dst.delivery_callback_;
    }
    if (callback) {
      callback();
    }
    return OkStatus();
  }

  bool Poll(Packet* out) override {
    ScopedLock<std::mutex> guard(mutex_);
    if (inbox_.empty()) {
      return false;
    }
    *out = std::move(inbox_.front());
    inbox_.pop_front();
    return true;
  }

  std::size_t PendingCount() const override {
    ScopedLock<std::mutex> guard(mutex_);
    return inbox_.size();
  }

  NodeId node() const override { return node_; }

  void SetDeliveryCallback(std::function<void()> callback) {
    ScopedLock<std::mutex> guard(mutex_);
    delivery_callback_ = std::move(callback);
  }

 private:
  ThreadFabric& fabric_;
  NodeId node_;
  mutable std::mutex mutex_;
  std::deque<Packet> inbox_ FLIPC_GUARDED_BY(mutex_);
  std::function<void()> delivery_callback_ FLIPC_GUARDED_BY(mutex_);
};

ThreadFabric::ThreadFabric(std::uint32_t node_count) {
  wires_.reserve(node_count);
  for (NodeId n = 0; n < node_count; ++n) {
    wires_.push_back(std::make_unique<ThreadWire>(*this, n));
  }
}

ThreadFabric::~ThreadFabric() = default;

Wire& ThreadFabric::wire(NodeId node) { return *wires_[node]; }

void ThreadFabric::SetDeliveryCallback(NodeId node, std::function<void()> callback) {
  wires_[node]->SetDeliveryCallback(std::move(callback));
}

}  // namespace flipc::simnet
