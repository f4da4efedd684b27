// KKT-backed FLIPC messaging engine.
//
// The paper's development strategy: before the native Paragon engine
// existed, FLIPC ran over the Kernel-to-Kernel Transport (KKT), a kernel
// RPC interface shared with other OSF projects. "This interface is not a
// good match to the one way messages used by FLIPC because KKT uses an RPC
// to deliver each message. On the other hand, this was very effective for
// development purposes" — the platform-independent pieces (application
// library, communication buffer) were debugged on PC clusters and moved to
// the Paragon in under a week.
//
// This engine demonstrates exactly that: it reuses MessagingEngine's entire
// communication-buffer machinery and only replaces transmission. Every
// FLIPC message becomes a KKT RPC:
//
//   request  (payload + destination address)  ->  remote kernel
//   remote kernel delivers via the normal optimistic rule, then
//   response (token)                          ->  send completes
//
// A send endpoint admits one RPC in flight at a time (the process cursor
// cannot pass an unacknowledged message without breaking the ordered-
// delivery guarantee), which is the structural reason KKT FLIPC is slow —
// reproduced by experiment E8.
//
// Precondition: the wire never refuses a send (the simulated fabric's
// wire). A request's ack is sent exactly once; a wire that refuses it
// aborts the process with a message rather than strand the requester.
#ifndef SRC_KKT_KKT_ENGINE_H_
#define SRC_KKT_KKT_ENGINE_H_

#include <cstdint>
#include <unordered_map>

#include "src/engine/messaging_engine.h"
#include "src/engine/platform_model.h"

namespace flipc::kkt {

// Packet.kind values for the KKT protocol.
inline constexpr std::uint32_t kKktRequest = 1;
inline constexpr std::uint32_t kKktResponse = 2;

class KktMessagingEngine final : public engine::MessagingEngine {
 public:
  KktMessagingEngine(shm::CommBuffer& comm, simnet::Wire& wire, engine::EngineOptions options,
                     const engine::PlatformModel* model = nullptr,
                     const engine::KktModel* kkt_model = nullptr,
                     simos::SemaphoreTable* semaphores = nullptr);
  ~KktMessagingEngine() override;

  std::uint64_t rpcs_sent() const { return rpcs_sent_; }
  std::uint64_t rpcs_served() const { return rpcs_served_; }

 protected:
  TransmitOutcome TransmitMessage(std::uint32_t endpoint_index, waitfree::BufferIndex buffer,
                                  Address src, Address dst,
                                  simnet::CostAccumulator& cost) override;

  bool EndpointBlocked(std::uint32_t endpoint_index) const override;
  DurationNs TransmitPlanCost() const override { return kkt_model_.rpc_send_ns; }

 private:
  class KktHandler;

  void HandleKktPacket(simnet::Packet packet, simnet::CostAccumulator& cost);

  const engine::KktModel kkt_model_;
  std::unique_ptr<KktHandler> handler_;

  // Send endpoints with an unacknowledged RPC: endpoint -> token.
  std::unordered_map<std::uint32_t, std::uint64_t> in_flight_;
  std::uint64_t next_token_ = 1;
  std::uint64_t rpcs_sent_ = 0;
  std::uint64_t rpcs_served_ = 0;
};

}  // namespace flipc::kkt

#endif  // SRC_KKT_KKT_ENGINE_H_
