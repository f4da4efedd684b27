#include "src/flipc/sim_workloads.h"

#include <memory>

#include "src/base/log.h"
#include "src/base/rng.h"

namespace flipc::sim {

namespace {

struct Side {
  Domain* domain = nullptr;
  Endpoint rx;
  Endpoint tx;
  MessageBuffer rx_buf;
  MessageBuffer tx_buf;
};

// The two-node exchange test program as a DES actor. See header.
class PingPongActor {
 public:
  PingPongActor(SimCluster& cluster, const PingPongConfig& config)
      : cluster_(cluster),
        config_(config),
        total_one_ways_(2 * config.exchanges),
        jitter_rng_(config.jitter_seed) {}

  Status Setup() {
    FLIPC_RETURN_IF_ERROR(SetupSide(config_.node_a, a_));
    FLIPC_RETURN_IF_ERROR(SetupSide(config_.node_b, b_));
    HookSide(config_.node_a, a_, b_);
    HookSide(config_.node_b, b_, a_);
    return OkStatus();
  }

  Result<PingPongResult> Run() {
    Launch(a_, b_);
    const bool completed = cluster_.sim().RunWhile([this] { return !done_; });
    if (!completed) {
      FLIPC_LOG(kError) << "ping-pong stalled after " << one_ways_done_ << "/"
                        << total_one_ways_ << " one-way messages";
      return InternalStatus();
    }
    result_.finished_at = cluster_.sim().Now();
    return std::move(result_);
  }

 private:
  Status SetupSide(NodeId node, Side& side) {
    side.domain = &cluster_.domain(node);
    Domain::EndpointOptions rx;
    rx.type = shm::EndpointType::kReceive;
    rx.queue_depth = 4;
    FLIPC_ASSIGN_OR_RETURN(side.rx, side.domain->CreateEndpoint(rx));
    Domain::EndpointOptions tx;
    tx.type = shm::EndpointType::kSend;
    tx.queue_depth = 4;
    FLIPC_ASSIGN_OR_RETURN(side.tx, side.domain->CreateEndpoint(tx));
    FLIPC_ASSIGN_OR_RETURN(side.rx_buf, side.domain->AllocateBuffer());
    FLIPC_ASSIGN_OR_RETURN(side.tx_buf, side.domain->AllocateBuffer());
    FLIPC_RETURN_IF_ERROR(side.rx.PostBuffer(side.rx_buf));
    return OkStatus();
  }

  void HookSide(NodeId node, Side& side, Side& peer) {
    cluster_.engine(node).SetReceiveHook(
        [this, &side, &peer](std::uint32_t endpoint, bool delivered) {
          if (endpoint == side.rx.index() && delivered) {
            OnDelivered(side, peer);
          }
        });
  }

  bool Warm() const { return one_ways_done_ / 2 >= config_.cache_warm_exchanges; }

  // Approximately normal zero-mean noise (Irwin-Hall of 12 uniforms),
  // clamped so a cost can never go negative.
  DurationNs Jitter() {
    if (config_.jitter_stddev_ns == 0) {
      return 0;
    }
    double sum = 0.0;
    for (int i = 0; i < 12; ++i) {
      sum += jitter_rng_.UnitDouble();
    }
    return static_cast<DurationNs>((sum - 6.0) *
                                   static_cast<double>(config_.jitter_stddev_ns));
  }

  DurationNs ClampCost(DurationNs cost) { return cost < 100 ? 100 : cost; }

  DurationNs SendCost() {
    const engine::PlatformModel& m = cluster_.model();
    DurationNs cost = m.app_send_ns;
    if (!Warm()) {
      cost -= m.cache_steady_penalty_ns;
    }
    if (config_.locked_variants) {
      cost += 2 * m.lock_op_ns;  // Send + Reclaim each take the endpoint lock.
    }
    if (config_.model_unpadded_layout) {
      cost += m.app_false_sharing_ns;
    }
    return ClampCost(cost + Jitter());
  }

  DurationNs RecvCost() {
    const engine::PlatformModel& m = cluster_.model();
    DurationNs cost = m.app_recv_ns;
    if (!Warm()) {
      cost -= m.cache_steady_penalty_ns;
    }
    if (config_.locked_variants) {
      cost += 2 * m.lock_op_ns;  // Receive + PostBuffer.
    }
    if (config_.model_unpadded_layout) {
      cost += m.app_false_sharing_ns;
    }
    return ClampCost(cost + Jitter());
  }

  void Launch(Side& side, Side& peer) {
    launch_time_ = cluster_.sim().Now();
    cluster_.sim().ScheduleAfter(SendCost(), [this, &side, &peer] {
      const Status status =
          config_.locked_variants ? side.tx.Send(side.tx_buf, peer.rx.address())
                                  : side.tx.SendUnlocked(side.tx_buf, peer.rx.address());
      if (!status.ok()) {
        FLIPC_LOG(kError) << "ping-pong send failed: " << status.ToString();
        done_ = true;
      }
    });
  }

  void OnDelivered(Side& side, Side& peer) {
    cluster_.sim().ScheduleAfter(RecvCost(), [this, &side, &peer] {
      const double sample = static_cast<double>(cluster_.sim().Now() - launch_time_);
      // Default statistics are steady state (as Figure 4 reports): samples
      // from the cache-cold window are excluded unless record_first asks
      // for exactly the start-up behaviour.
      const bool record = config_.record_first != 0
                              ? one_ways_done_ < config_.record_first
                              : one_ways_done_ >= 2 * config_.cache_warm_exchanges;
      if (record) {
        result_.one_way_ns.Add(sample);
        result_.samples_ns.push_back(sample);
      }
      ++one_ways_done_;

      // Application turnaround: collect the message, re-post the buffer
      // (step 1 for the next message), recover the previously sent buffer
      // (step 5), and reply.
      Result<MessageBuffer> message = config_.locked_variants ? side.rx.Receive()
                                                              : side.rx.ReceiveUnlocked();
      if (message.ok()) {
        (void)(config_.locked_variants ? side.rx.PostBuffer(*message)
                                       : side.rx.PostBufferUnlocked(*message));
      }
      Result<MessageBuffer> reclaimed = config_.locked_variants ? side.tx.Reclaim()
                                                                : side.tx.ReclaimUnlocked();
      if (reclaimed.ok()) {
        side.tx_buf = *reclaimed;
      }

      if (one_ways_done_ >= total_one_ways_) {
        done_ = true;
        return;
      }
      Launch(side, peer);
    });
  }

  SimCluster& cluster_;
  PingPongConfig config_;
  PingPongResult result_;
  Side a_;
  Side b_;
  TimeNs launch_time_ = 0;
  std::uint32_t one_ways_done_ = 0;
  std::uint32_t total_one_ways_;
  Rng jitter_rng_;
  bool done_ = false;
};

// Streaming sender/receiver pair for the bandwidth experiments.
class StreamActor {
 public:
  StreamActor(SimCluster& cluster, const StreamConfig& config)
      : cluster_(cluster), config_(config) {}

  Status Setup() {
    tx_domain_ = &cluster_.domain(config_.sender);
    rx_domain_ = &cluster_.domain(config_.receiver);

    std::uint32_t depth = 1;
    while (depth < config_.pipeline_depth) {
      depth <<= 1;
    }

    Domain::EndpointOptions tx;
    tx.type = shm::EndpointType::kSend;
    tx.queue_depth = depth;
    FLIPC_ASSIGN_OR_RETURN(tx_, tx_domain_->CreateEndpoint(tx));

    Domain::EndpointOptions rx;
    rx.type = shm::EndpointType::kReceive;
    rx.queue_depth = 2 * depth;
    FLIPC_ASSIGN_OR_RETURN(rx_, rx_domain_->CreateEndpoint(rx));

    for (std::uint32_t i = 0; i < 2 * config_.pipeline_depth; ++i) {
      FLIPC_ASSIGN_OR_RETURN(MessageBuffer buffer, rx_domain_->AllocateBuffer());
      FLIPC_RETURN_IF_ERROR(rx_.PostBuffer(buffer));
    }

    // The send hook fires before the completion that makes the buffer
    // reclaimable, so the reclaim runs as an event at the same instant.
    cluster_.engine(config_.sender).SetSendCompleteHook([this](std::uint32_t endpoint) {
      if (endpoint == tx_.index()) {
        cluster_.sim().ScheduleAfter(0, [this] { OnSendComplete(); });
      }
    });
    cluster_.engine(config_.receiver)
        .SetReceiveHook([this](std::uint32_t endpoint, bool delivered) {
          if (endpoint == rx_.index() && delivered) {
            OnDelivered();
          }
        });
    return OkStatus();
  }

  Result<StreamResult> Run() {
    result_.first_send_ns = cluster_.sim().Now();
    for (std::uint32_t i = 0; i < config_.pipeline_depth && sent_ < config_.total_messages;
         ++i) {
      FLIPC_ASSIGN_OR_RETURN(MessageBuffer buffer, tx_domain_->AllocateBuffer());
      ScheduleSend(buffer);
    }
    const bool completed = cluster_.sim().RunWhile(
        [this] { return result_.messages_delivered < config_.total_messages; });
    if (!completed) {
      FLIPC_LOG(kError) << "stream stalled: delivered " << result_.messages_delivered << "/"
                        << config_.total_messages << " (drops at receiver: "
                        << rx_.DropCount() << ")";
      return InternalStatus();
    }
    result_.payload_bytes =
        result_.messages_delivered * tx_domain_->payload_size();
    return result_;
  }

 private:
  // Serializes sender application work on its (virtual) compute processor.
  void ScheduleSend(MessageBuffer buffer) {
    const engine::PlatformModel& m = cluster_.model();
    const TimeNs now = cluster_.sim().Now();
    const TimeNs start = sender_cpu_free_ > now ? sender_cpu_free_ : now;
    sender_cpu_free_ = start + m.app_send_ns;
    ++sent_;
    cluster_.sim().ScheduleAt(sender_cpu_free_, [this, buffer]() mutable {
      if (!tx_.SendUnlocked(buffer, rx_.address()).ok()) {
        FLIPC_LOG(kError) << "stream send failed";
      }
    });
  }

  void OnSendComplete() {
    if (sent_ >= config_.total_messages) {
      return;
    }
    Result<MessageBuffer> buffer = tx_.ReclaimUnlocked();
    if (buffer.ok()) {
      ScheduleSend(*buffer);
    }
  }

  void OnDelivered() {
    ++result_.messages_delivered;
    result_.last_delivery_ns = cluster_.sim().Now();
    // Receiver application: collect and re-post, serialized on its CPU.
    const engine::PlatformModel& m = cluster_.model();
    const TimeNs now = cluster_.sim().Now();
    const TimeNs start = receiver_cpu_free_ > now ? receiver_cpu_free_ : now;
    receiver_cpu_free_ = start + m.app_recv_ns;
    cluster_.sim().ScheduleAt(receiver_cpu_free_, [this] {
      Result<MessageBuffer> message = rx_.ReceiveUnlocked();
      if (message.ok()) {
        (void)rx_.PostBufferUnlocked(*message);
      }
    });
  }

  SimCluster& cluster_;
  StreamConfig config_;
  StreamResult result_;
  Domain* tx_domain_ = nullptr;
  Domain* rx_domain_ = nullptr;
  Endpoint tx_;
  Endpoint rx_;
  std::uint64_t sent_ = 0;
  TimeNs sender_cpu_free_ = 0;
  TimeNs receiver_cpu_free_ = 0;
};

}  // namespace

Result<PingPongResult> RunPingPong(SimCluster& cluster, const PingPongConfig& config) {
  PingPongActor actor(cluster, config);
  FLIPC_RETURN_IF_ERROR(actor.Setup());
  return actor.Run();
}

Result<StreamResult> RunStream(SimCluster& cluster, const StreamConfig& config) {
  StreamActor actor(cluster, config);
  FLIPC_RETURN_IF_ERROR(actor.Setup());
  return actor.Run();
}

}  // namespace flipc::sim
