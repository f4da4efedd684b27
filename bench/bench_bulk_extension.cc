// E12 — the bulk-transfer future-work extension, closing the loop on E6.
//
// Paper: "FLIPC was designed solely to address the transport of medium
// sized messages and needs to be integrated into a system that provides
// excellent performance for messages of all sizes." E6 showed a
// medium-configured FLIPC losing the bulk regime to NX/SUNMOS; this bench
// shows the layered bulk library (fragmentation + window flow control over
// 1 KB FLIPC messages) restoring competitive large-transfer bandwidth with
// zero transport drops — while the engine stays untouched.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/baselines/baseline_messenger.h"
#include "src/flow/bulk_channel.h"

namespace flipc::bench {
namespace {

double BulkMBps(std::size_t total_bytes, std::uint32_t message_size) {
  auto cluster = MakeParagonPair(message_size);
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  constexpr std::uint32_t kWindow = 32;

  auto data_tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = kWindow});
  auto credit_rx =
      a.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = kWindow});
  auto data_rx =
      b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = kWindow});
  auto credit_tx = b.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = kWindow});
  auto receiver = flow::BulkReceiver::Create(b, *data_rx, *credit_tx, credit_rx->address(),
                                             kWindow);
  auto sender =
      flow::BulkSender::Create(a, *data_tx, *credit_rx, data_rx->address(), kWindow);
  if (!receiver.ok() || !sender.ok()) {
    std::abort();
  }

  std::vector<std::byte> data(total_bytes, std::byte{0x42});
  const TimeNs start = cluster->sim().Now();
  if (!sender->Start(data.data(), data.size()).ok()) {
    std::abort();
  }

  // Event-driven pipeline: pump the sender whenever credits arrive or
  // fragment buffers complete; poll the receiver on every data delivery.
  // This keeps the window full continuously instead of draining it in
  // batches, which is how a real application would run the library.
  TimeNs done_at = -1;
  bool checksum_ok = false;
  const std::uint32_t data_tx_index = data_tx->index();
  const std::uint32_t credit_rx_index = credit_rx->index();
  const std::uint32_t data_rx_index = data_rx->index();
  // Both hooks fire before their buffer is reclaimable or acquirable, so
  // the pumps and the poll run as events at the same virtual instant.
  cluster->engine(0).SetSendCompleteHook([&](std::uint32_t endpoint) {
    if (endpoint == data_tx_index) {
      cluster->sim().ScheduleAfter(0, [&] { sender->Pump(); });
    }
  });
  cluster->engine(0).SetReceiveHook([&](std::uint32_t endpoint, bool delivered) {
    if (endpoint == credit_rx_index && delivered) {
      cluster->sim().ScheduleAfter(0, [&] { sender->Pump(); });
    }
  });
  cluster->engine(1).SetReceiveHook([&](std::uint32_t endpoint, bool delivered) {
    if (endpoint != data_rx_index || !delivered) {
      return;
    }
    cluster->sim().ScheduleAfter(0, [&] {
      auto transfer = receiver->Poll();
      if (transfer.ok()) {
        done_at = cluster->sim().Now();
        checksum_ok = transfer->checksum_ok;
      }
    });
  });

  sender->Pump();
  cluster->sim().Run();
  if (done_at < 0 || !checksum_ok) {
    std::fprintf(stderr, "FATAL: bulk transfer incomplete or corrupt\n");
    std::abort();
  }
  return static_cast<double>(total_bytes) / (1024.0 * 1024.0) /
         (static_cast<double>(done_at - start) / 1e9);
}

template <typename Messenger>
double BaselineMBps(std::size_t total_bytes) {
  simnet::Simulator sim;
  Messenger messenger(sim, 2, std::make_unique<simnet::MeshLinkModel>());
  TimeNs done_at = -1;
  messenger.Send(0, 1, total_bytes, [&] { done_at = sim.Now(); });
  sim.Run();
  return static_cast<double>(total_bytes) / (1024.0 * 1024.0) /
         (static_cast<double>(done_at) / 1e9);
}

void Run() {
  PrintHeader("E12: bench_bulk_extension",
              "Future Work (bulk integration; extends the E6 comparison)",
              "a bulk library layered over FLIPC messages restores large-transfer "
              "bandwidth competitive with the bulk-optimized systems");

  TextTable table({"transfer", "FLIPC+bulk(1KB) MB/s", "FLIPC+bulk(128B) MB/s", "NX MB/s",
                   "SUNMOS MB/s"});
  double flipc_large = 0, nx_large = 0;
  for (const std::size_t bytes :
       {64u * 1024u, 256u * 1024u, 1024u * 1024u, 4u * 1024u * 1024u}) {
    const double bulk1k = BulkMBps(bytes, 1024);
    const double bulk128 = BulkMBps(bytes, 128);
    const double nx = BaselineMBps<baselines::NxMessenger>(bytes);
    const double sunmos = BaselineMBps<baselines::SunmosMessenger>(bytes);
    flipc_large = bulk1k;
    nx_large = nx;
    char label[32];
    std::snprintf(label, sizeof(label), "%zu KB", bytes / 1024);
    table.AddRow({label, TextTable::Num(bulk1k, 1), TextTable::Num(bulk128, 1),
                  TextTable::Num(nx, 1), TextTable::Num(sunmos, 1)});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("Shape check: with the extension, large-message FLIPC is within %.0f%% of "
              "NX %s — the 'complete system' the future-work section calls for, built\n"
              "entirely above the unchanged medium-message transport.\n\n",
              100.0 * flipc_large / nx_large,
              flipc_large > 0.8 * nx_large ? "[OK]" : "[MISMATCH]");
}

}  // namespace
}  // namespace flipc::bench

int main() {
  flipc::bench::Run();
  return 0;
}
