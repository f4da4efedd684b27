#include "src/kkt/kkt_engine.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/base/hotpath.h"
#include "src/base/log.h"

namespace flipc::kkt {

// Inbound KKT traffic arrives through the engine's protocol framework.
class KktMessagingEngine::KktHandler final : public engine::ProtocolHandler {
 public:
  explicit KktHandler(KktMessagingEngine& owner) : owner_(owner) {}

  void HandlePacket(simnet::Packet packet, simnet::CostAccumulator& cost) override {
    owner_.HandleKktPacket(std::move(packet), cost);
  }

  bool PollWork(simnet::CostAccumulator&) override { return false; }

  // Requests pay the kernel receive path plus reply generation; responses
  // pay completion handling. Priced at plan time so delivery and send
  // completion land after the kernel work, not before.
  DurationNs PlanCost(const simnet::Packet& packet) const override {
    if (packet.kind == kKktRequest) {
      return owner_.kkt_model_.rpc_recv_ns + owner_.kkt_model_.ack_ns;
    }
    return owner_.kkt_model_.ack_ns;
  }

 private:
  KktMessagingEngine& owner_;
};

KktMessagingEngine::KktMessagingEngine(shm::CommBuffer& comm, simnet::Wire& wire,
                                       engine::EngineOptions options,
                                       const engine::PlatformModel* model,
                                       const engine::KktModel* kkt_model,
                                       simos::SemaphoreTable* semaphores)
    : MessagingEngine(comm, wire, options, model, semaphores),
      kkt_model_(kkt_model != nullptr ? *kkt_model : engine::KktModel{}),
      handler_(std::make_unique<KktHandler>(*this)) {
  // The handler is owned by this object; registration cannot fail for the
  // KKT protocol id on a freshly constructed engine.
  (void)RegisterProtocol(simnet::kProtocolKkt, handler_.get());
}

KktMessagingEngine::~KktMessagingEngine() = default;

bool KktMessagingEngine::EndpointBlocked(std::uint32_t endpoint_index) const {
  return in_flight_.find(endpoint_index) != in_flight_.end();
}

engine::MessagingEngine::TransmitOutcome KktMessagingEngine::TransmitMessage(
    std::uint32_t endpoint_index, waitfree::BufferIndex buffer, Address src, Address dst,
    simnet::CostAccumulator& cost) {
  // KKT is the development transport: an RPC (marshal + kernel send) per
  // message is the paper's documented mismatch with FLIPC, not part of the
  // wait-free path — the batched commit may reach this from an armed scope.
  FLIPC_HOT_PATH_EXEMPT("KKT development transport: RPC per message");
  shm::MsgView view = comm().msg(buffer);

  simnet::Packet request;
  request.dst_node = dst.node();
  request.protocol = simnet::kProtocolKkt;
  request.kind = kKktRequest;
  request.src_addr = src.packed();
  request.dst_addr = dst.packed();
  request.seq = next_token_;
  request.payload.assign(view.payload, view.payload + view.payload_size);

  const Status status = wire().Send(std::move(request));
  if (status.code() == StatusCode::kUnavailable) {
    return TransmitOutcome::kBackPressured;  // The token is reused on the retry.
  }
  const std::uint64_t token = next_token_++;
  if (!status.ok()) {
    ++stats_.drops_bad_address;
    return TransmitOutcome::kComplete;
  }
  ++rpcs_sent_;
  in_flight_.emplace(endpoint_index, token);
  (void)cost;  // Transmission cost is priced at plan time (TransmitPlanCost).
  // Completion is deferred until the response arrives; the endpoint is
  // blocked (stop-and-wait) meanwhile.
  return TransmitOutcome::kDeferred;
}

void KktMessagingEngine::HandleKktPacket(simnet::Packet packet, simnet::CostAccumulator& cost) {
  if (packet.kind == kKktRequest) {
    // Deliver under the normal optimistic rule (drop without a posted
    // buffer), then acknowledge the RPC either way: KKT reports transport
    // completion, not application acceptance. Costs were priced at plan
    // time via KktHandler::PlanCost.
    DeliverLocal(packet, cost);
    ++rpcs_served_;

    simnet::Packet response;
    response.dst_node = packet.src_node;
    response.protocol = simnet::kProtocolKkt;
    response.kind = kKktResponse;
    response.dst_addr = packet.src_addr;
    response.seq = packet.seq;
    // The ack is sent once: KKT runs on the simulated fabric (E8), whose
    // wire never refuses. A refused ack would leave the requester's
    // endpoint blocked for good, and there is no retry path, so a wire that
    // refuses is a broken precondition, not a loss to count.
    const Status status = wire().Send(std::move(response));
    if (!status.ok()) {
      std::fprintf(stderr,
                   "FLIPC kkt: the wire refused the ack to node %u (%s); the KKT engine "
                   "needs a wire that never refuses a send\n",
                   static_cast<unsigned>(packet.src_node), status.ToString().c_str());
      std::abort();
    }
    return;
  }

  if (packet.kind == kKktResponse) {
    const Address src = Address::FromPacked(packet.dst_addr);
    const std::uint32_t endpoint_index = src.endpoint();
    auto it = in_flight_.find(endpoint_index);
    if (it == in_flight_.end() || it->second != packet.seq) {
      FLIPC_LOG(kWarning) << "kkt: stray response token " << packet.seq;
      return;
    }
    in_flight_.erase(it);
    ++stats_.messages_sent;
    CompleteSend(endpoint_index);
    return;
  }

  FLIPC_LOG(kWarning) << "kkt: unknown packet kind " << packet.kind;
}

}  // namespace flipc::kkt
