// Data replicator: bulk transfer and plain FLIPC messages sharing one
// cluster, as the "complete system" the paper's conclusion calls for.
//
//   * node 0 (producer) pushes a dataset to node 1 with the BULK TRANSFER
//     library — fragmentation + window flow control layered over ordinary
//     FLIPC messages, checksum-verified on reassembly;
//   * the producer and node 1 (replica) each send the auditor, node 2, one
//     ordinary FLIPC message carrying their checksum of the dataset;
//   * the auditor accepts the replica only when the two checksums agree.
//
// Both protocols (FLIPC messages and bulk credits) share each node's
// messaging engine, just as the paper's engine carried FLIPC alongside the
// OSF/1 AD protocols.
//
// Build & run:  ./build/examples/data_replicator
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/base/checksum.h"
#include "src/base/rng.h"
#include "src/flipc/flipc.h"
#include "src/flow/bulk_channel.h"

namespace {
constexpr std::size_t kDatasetBytes = 256 * 1024;
constexpr std::uint32_t kWindowDepth = 16;

// Sends one 64-bit checksum as an ordinary FLIPC message and waits until
// the engine has sent it.
bool SendChecksum(flipc::Domain& domain, flipc::Address auditor, std::uint64_t sum) {
  auto tx = domain.CreateEndpoint({.type = flipc::shm::EndpointType::kSend});
  auto message = domain.AllocateBuffer();
  if (!tx.ok() || !message.ok() || !message->Write(&sum, sizeof(sum)) ||
      !tx->Send(*message, auditor).ok()) {
    return false;
  }
  flipc::Result<flipc::MessageBuffer> reclaimed = flipc::UnavailableStatus();
  while (!reclaimed.ok()) {
    reclaimed = tx->Reclaim();
    std::this_thread::yield();
  }
  return true;
}
}  // namespace

int main() {
  flipc::Cluster::Options options;
  options.node_count = 3;
  options.comm.message_size = 1024;  // bulk likes bigger fragments
  options.comm.buffer_count = 128;
  auto cluster = flipc::Cluster::Create(options);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster creation failed\n");
    return 1;
  }
  flipc::Domain& producer = (*cluster)->domain(0);
  flipc::Domain& replica = (*cluster)->domain(1);
  flipc::Domain& auditor = (*cluster)->domain(2);
  (*cluster)->Start();

  // --- Auditor: one receive endpoint, a buffer posted per expected sum ---
  auto audit_rx = auditor.CreateEndpoint({.type = flipc::shm::EndpointType::kReceive});
  if (!audit_rx.ok()) {
    return 1;
  }
  for (int i = 0; i < 2; ++i) {
    auto buffer = auditor.AllocateBuffer();
    if (!buffer.ok() || !audit_rx->PostBuffer(*buffer).ok()) {
      return 1;
    }
  }

  // --- Bulk channel: producer -> replica ---
  auto data_tx = producer.CreateEndpoint(
      {.type = flipc::shm::EndpointType::kSend, .queue_depth = kWindowDepth});
  auto credit_rx = producer.CreateEndpoint(
      {.type = flipc::shm::EndpointType::kReceive, .queue_depth = kWindowDepth});
  auto data_rx = replica.CreateEndpoint(
      {.type = flipc::shm::EndpointType::kReceive, .queue_depth = kWindowDepth});
  auto credit_tx = replica.CreateEndpoint(
      {.type = flipc::shm::EndpointType::kSend, .queue_depth = kWindowDepth});
  if (!data_tx.ok() || !credit_rx.ok() || !data_rx.ok() || !credit_tx.ok()) {
    return 1;
  }
  auto receiver = flipc::flow::BulkReceiver::Create(replica, *data_rx, *credit_tx,
                                                    credit_rx->address(), kWindowDepth);
  auto sender = flipc::flow::BulkSender::Create(producer, *data_tx, *credit_rx,
                                                data_rx->address(), kWindowDepth);
  if (!receiver.ok() || !sender.ok()) {
    return 1;
  }

  // The dataset: pseudo-random so corruption cannot hide.
  std::vector<std::byte> dataset(kDatasetBytes);
  flipc::Rng rng(0xDA7A);
  for (auto& b : dataset) {
    b = static_cast<std::byte>(rng() & 0xff);
  }
  const std::uint64_t dataset_sum = flipc::Fnv1a(dataset.data(), dataset.size());

  // Replica thread: reassemble, verify, report its checksum to the auditor.
  std::vector<std::byte> replica_copy;
  bool replica_reported = false;
  std::thread replica_thread([&] {
    for (;;) {
      auto transfer = receiver->Poll();
      if (transfer.ok()) {
        if (!transfer->checksum_ok) {
          std::fprintf(stderr, "replica: checksum FAILED\n");
          return;
        }
        replica_copy = std::move(transfer->data);
        replica_reported = SendChecksum(
            replica, audit_rx->address(),
            flipc::Fnv1a(replica_copy.data(), replica_copy.size()));
        return;
      }
      std::this_thread::yield();
    }
  });

  // Producer: start and pump the transfer, then report its own checksum.
  auto transfer_id = sender->Start(dataset.data(), dataset.size());
  if (!transfer_id.ok()) {
    return 1;
  }
  while (sender->Pump()) {
    std::this_thread::yield();
  }
  replica_thread.join();
  if (replica_copy.size() != kDatasetBytes || !replica_reported) {
    std::fprintf(stderr, "replication failed\n");
    return 1;
  }
  std::printf("replicated %zu KB in %llu fragments (checksum ok)\n", kDatasetBytes / 1024,
              static_cast<unsigned long long>(sender->fragments_sent()));
  if (!SendChecksum(producer, audit_rx->address(), dataset_sum)) {
    return 1;
  }

  // --- Auditor: compare the two reported checksums ---
  std::uint64_t sums[2] = {};
  for (std::uint64_t& sum : sums) {
    flipc::Result<flipc::MessageBuffer> received = flipc::UnavailableStatus();
    while (!received.ok()) {
      received = audit_rx->Receive();
      std::this_thread::yield();
    }
    if (!received->Read(&sum, sizeof(sum))) {
      return 1;
    }
  }
  (*cluster)->Stop();

  const bool ok = sums[0] == sums[1] && sums[0] == dataset_sum;
  std::printf("audit: replica and producer checksums %s (%016llx)\n",
              sums[0] == sums[1] ? "agree" : "DISAGREE",
              static_cast<unsigned long long>(sums[0]));
  std::printf("data_replicator %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
