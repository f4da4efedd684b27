// flipc_inspect — dump the state of a communication buffer.
//
// The communication buffer is the system's whole state: endpoints, queues,
// cursors, drop counters, telemetry, free lists. Because the layout is
// offsets-only, any process that can map the region can audit a live system
// without stopping it (all reads go through the same wait-free cells the
// engine uses). Usage:
//
//   flipc_inspect [flags] /shm_name   inspect a POSIX shm communication buffer
//   flipc_inspect [flags] --demo      create a demo buffer, mutate it, dump it
//
// Flags:
//   --metrics       per-endpoint telemetry table plus consistency checks:
//                   every counter identity the library and engine maintain
//                   (api counters vs queue cursors, engine counters vs
//                   processed totals) is re-derived and reported [OK] or
//                   [MISMATCH]. Exit status 1 on any mismatch, so CI can
//                   gate on it.
//   --trace[=PATH]  demo mode: record a short API/engine event sequence in
//                   a TraceRing (demonstrating the enable flag) and export
//                   it as Chrome trace-event JSON to PATH (stdout without
//                   PATH). With an shm target, explains that trace rings
//                   are process-local host memory.
//   --watch[=SECS]  redraw every SECS seconds (default 1) until interrupted.
//
// Exit status: 0 on success, 1 on usage/attach errors or metric mismatches.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/base/table.h"
#include "src/base/trace.h"
#include "src/shm/comm_buffer.h"
#include "src/shm/posix_region.h"
#include "src/shm/telemetry_audit.h"
#include "src/waitfree/boundary_check.h"

namespace flipc {
namespace {

struct InspectOptions {
  bool metrics = false;
  bool trace = false;
  bool watch = false;
  bool demo = false;
  std::string trace_path;
  unsigned watch_seconds = 1;
  std::string target;
};

const char* TypeName(shm::EndpointType type) {
  switch (type) {
    case shm::EndpointType::kInactive:
      return "-";
    case shm::EndpointType::kSend:
      return "send";
    case shm::EndpointType::kReceive:
      return "receive";
  }
  return "?";
}

void Dump(shm::CommBuffer& comm) {
  const shm::CommBufferHeader& header = comm.header();
  std::printf("communication buffer @ %p\n", static_cast<void*>(comm.base()));
  std::printf("  magic            0x%016llx (version %u)\n",
              static_cast<unsigned long long>(header.magic), header.version);
  std::printf("  total size       %llu bytes\n",
              static_cast<unsigned long long>(header.total_size));
  std::printf("  message size     %u bytes (%u payload + 8 internal)\n",
              header.message_size, comm.payload_size());
  std::printf("  buffers          %u total, %u free\n", header.buffer_count,
              comm.FreeBufferCount());
  std::printf("  endpoints        %u active of %u\n", header.endpoints_active,
              header.max_endpoints);
  std::printf("  cell arena       %u used of %u\n\n", header.cells_used,
              header.cell_arena_size);

  TextTable table({"ep", "type", "depth", "queued", "processable", "ready", "drops",
                   "processed", "restrict", "class", "deadline", "bucket"});
  for (std::uint32_t i = 0; i < header.max_endpoints; ++i) {
    const shm::EndpointRecord& record = comm.endpoint(i);
    if (!record.IsActive()) {
      continue;
    }
    waitfree::BufferQueueView queue = comm.queue(i);
    const Address restrict_to = Address::FromPacked(record.allowed_peer.Read());
    char restrict_text[32] = "-";
    if (restrict_to.valid()) {
      std::snprintf(restrict_text, sizeof(restrict_text), "%u:%u", restrict_to.node(),
                    restrict_to.endpoint());
    }
    // Bucket column: "capacity/refill-ns" when configured, "-" otherwise.
    char bucket_text[32] = "-";
    if (record.bucket_capacity.Read() != 0) {
      std::snprintf(bucket_text, sizeof(bucket_text), "%u/%u",
                    record.bucket_capacity.Read(), record.bucket_refill_ns.Read());
    }
    table.AddRow({std::to_string(i), TypeName(record.Type()),
                  std::to_string(record.queue_capacity.Read()),
                  std::to_string(queue.Size()), std::to_string(queue.ProcessableCount()),
                  std::to_string(queue.AcquirableCount()),
                  std::to_string(record.DropCount()),
                  std::to_string(record.processed_total.Read()),
                  restrict_text, std::to_string(record.qos_class.Read()),
                  std::to_string(record.deadline_ns.Read()), bucket_text});
  }
  std::printf("%s", table.ToString().c_str());
}

// The telemetry view plus the counter identities (telemetry_block.h):
//
//   send endpoint     low32(api_sends)    == release_count
//                     low32(api_reclaims) == acquire_count
//                     engine_transmits + engine_rejects == processed_total
//   receive endpoint  low32(api_posts)    == release_count
//                     low32(api_receives) == acquire_count
//                     engine_deliveries   == processed_total
//
// The identities hold for any buffer driven through the Endpoint API and
// the engine (at quiescence — mid-operation reads can be one apart on a
// live system). A buffer mutated by raw queue writes that skip the
// telemetry helpers will mismatch — which is exactly what the check is
// for. Returns the number of mismatching endpoints.
int MetricsDump(shm::CommBuffer& comm, bool quiescent) {
  int mismatches = 0;
  TextTable table({"ep", "type", "sends", "recvs", "posts", "reclaims", "rel.rej", "rings",
                   "ring.full", "eng.tx", "eng.dlv", "eng.rej", "q.hw", "dl.miss",
                   "gap.max", "defer", "drops", "check"});
  for (std::uint32_t i = 0; i < comm.max_endpoints(); ++i) {
    const shm::EndpointRecord& record = comm.endpoint(i);
    if (!record.IsActive()) {
      continue;
    }
    const shm::TelemetryBlock& t = comm.telemetry(i);
    // Shared with the failure-scenario tests (src/shm/telemetry_audit.h),
    // so what CI gates on and what recovery is tested against is one check.
    const bool ok = shm::CheckEndpointIdentities(comm, i, /*failures=*/nullptr);
    if (!ok) {
      ++mismatches;
    }
    table.AddRow({std::to_string(i), TypeName(record.Type()),
                  std::to_string(t.api_sends.Read()), std::to_string(t.api_receives.Read()),
                  std::to_string(t.api_posts.Read()), std::to_string(t.api_reclaims.Read()),
                  std::to_string(t.releases_rejected.Read()),
                  std::to_string(t.doorbell_rings.Read()),
                  std::to_string(t.doorbell_full.Read()),
                  std::to_string(t.engine_transmits.Read()),
                  std::to_string(t.engine_deliveries.Read()),
                  std::to_string(t.engine_rejects.Read()),
                  std::to_string(t.queue_depth_high_water.Read()),
                  std::to_string(t.deadline_misses.Read()),
                  std::to_string(t.max_service_gap_ns.Read()),
                  std::to_string(t.throttle_deferrals.Read()),
                  std::to_string(record.DropCount()), ok ? "[OK]" : "[MISMATCH]"});
  }
  std::printf("\nper-endpoint telemetry (comm-buffer resident):\n%s", table.ToString().c_str());
  if (mismatches != 0 && !quiescent) {
    std::printf("note: live system — counters read mid-operation may be transiently off "
                "by one\n");
  }
  return mismatches;
}

// Buffer-wide totals of the same counters. The identities are linear, so
// each one that holds per endpoint also holds summed over all of them (the
// API-side identities compare low 32 bits, because the record cursors are
// 32-bit and congruence survives summation).
int AggregateMetricsDump(shm::CommBuffer& comm) {
  std::uint64_t active = 0;
  std::uint64_t api_sends = 0, api_reclaims = 0, release_send = 0, acquire_send = 0;
  std::uint64_t api_posts = 0, api_receives = 0, release_recv = 0, acquire_recv = 0;
  std::uint64_t engine_tx = 0, engine_dlv = 0, engine_rej = 0;
  std::uint64_t processed_send = 0, processed_recv = 0, drops = 0;
  for (std::uint32_t i = 0; i < comm.max_endpoints(); ++i) {
    const shm::EndpointRecord& record = comm.endpoint(i);
    if (!record.IsActive()) {
      continue;
    }
    const shm::TelemetryBlock& t = comm.telemetry(i);
    ++active;
    drops += record.DropCount();
    if (record.Type() == shm::EndpointType::kSend) {
      api_sends += t.api_sends.Read();
      api_reclaims += t.api_reclaims.Read();
      release_send += record.release_count.Read();
      acquire_send += record.acquire_count.Read();
      engine_tx += t.engine_transmits.Read();
      engine_rej += t.engine_rejects.Read();
      processed_send += record.processed_total.Read();
    } else {
      api_posts += t.api_posts.Read();
      api_receives += t.api_receives.Read();
      release_recv += record.release_count.Read();
      acquire_recv += record.acquire_count.Read();
      engine_dlv += t.engine_deliveries.Read();
      processed_recv += record.processed_total.Read();
    }
  }

  const auto low32 = [](std::uint64_t x) { return static_cast<std::uint32_t>(x); };
  const bool ok = low32(api_sends) == low32(release_send) &&
                  low32(api_reclaims) == low32(acquire_send) &&
                  low32(api_posts) == low32(release_recv) &&
                  low32(api_receives) == low32(acquire_recv) &&
                  engine_tx + engine_rej == processed_send && engine_dlv == processed_recv;
  TextTable table({"eps", "active", "sends", "recvs", "posts", "reclaims", "eng.tx",
                   "eng.dlv", "eng.rej", "drops", "check"});
  table.AddRow({std::to_string(comm.max_endpoints()), std::to_string(active),
                std::to_string(api_sends), std::to_string(api_receives),
                std::to_string(api_posts), std::to_string(api_reclaims),
                std::to_string(engine_tx), std::to_string(engine_dlv),
                std::to_string(engine_rej), std::to_string(drops),
                ok ? "[OK]" : "[MISMATCH]"});
  std::printf("\nbuffer-wide telemetry totals:\n%s", table.ToString().c_str());
  return ok ? 0 : 1;
}

// Demonstrates the flight recorder: the enable flag (disabled records cost
// one branch and are dropped), a short API/engine event sequence, and the
// Chrome trace-event export.
int TraceDemo(const std::string& path) {
  TraceRing ring(16);
  ring.set_enabled(false);
  ring.Record(100, TraceEvent::kApiSend, 0);  // Dropped: ring disabled.
  ring.set_enabled(true);
  ring.Record(1000, TraceEvent::kApiSend, 1, 5);
  ring.Record(1450, TraceEvent::kEngineSend, 1, 5);
  ring.Record(2100, TraceEvent::kEngineDeliver, 0, 2);
  ring.Record(2150, TraceEvent::kEngineDrop, 0);
  ring.Record(2300, TraceEvent::kApiReceive, 0, 2);

  const std::string json = ToChromeTraceJson(ring);
  if (path.empty()) {
    std::printf("\ntrace (%llu recorded; 1 dropped while disabled):\n%s\n",
                static_cast<unsigned long long>(ring.recorded()), json.c_str());
    return 0;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot write trace to '%s'\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::printf("\ntrace: %zu bytes of Chrome trace JSON written to %s "
              "(load via chrome://tracing or ui.perfetto.dev)\n",
              json.size(), path.c_str());
  return 0;
}

int InspectOnce(shm::CommBuffer& comm, const InspectOptions& options, bool quiescent) {
  Dump(comm);
  int failures = 0;
  if (options.metrics) {
    failures += MetricsDump(comm, quiescent);
    failures += AggregateMetricsDump(comm);
  }
  return failures;
}

int InspectShm(const InspectOptions& options) {
  auto region = shm::PosixShmRegion::Open(options.target);
  if (!region.ok()) {
    std::fprintf(stderr, "error: cannot open shm region '%s' (%s)\n", options.target.c_str(),
                 region.status().ToString().c_str());
    return 1;
  }
  auto comm = shm::CommBuffer::Attach((*region)->base(), (*region)->size());
  if (!comm.ok()) {
    std::fprintf(stderr, "error: region '%s' is not a FLIPC communication buffer (%s)\n",
                 options.target.c_str(), comm.status().ToString().c_str());
    return 1;
  }
  if (options.trace) {
    std::printf("note: --trace targets host-memory rings (TraceRing holds process-local\n"
                "pointers and cannot live in the shared region); attach a ring in the\n"
                "owning process via Domain::SetTrace / MessagingEngine::SetTrace and\n"
                "export with ToChromeTraceJson. `--demo --trace` shows the output.\n");
  }
  int failures = InspectOnce(**comm, options, /*quiescent=*/false);
  while (options.watch) {
    std::this_thread::sleep_for(std::chrono::seconds(options.watch_seconds));
    std::printf("\n---- watch: +%us ----\n", options.watch_seconds);
    failures = InspectOnce(**comm, options, /*quiescent=*/false);
  }
  return failures == 0 ? 0 : 1;
}

int Demo(const InspectOptions& options) {
  shm::CommBufferConfig config;
  config.message_size = 128;
  config.buffer_count = 32;
  config.max_endpoints = 8;
  auto comm = shm::CommBuffer::Create(config);
  if (!comm.ok()) {
    return 1;
  }

  shm::CommBuffer::EndpointParams rx;
  rx.type = shm::EndpointType::kReceive;
  rx.queue_capacity = 8;
  auto rx_index = (*comm)->AllocateEndpoint(rx);

  shm::CommBuffer::EndpointParams tx;
  tx.type = shm::EndpointType::kSend;
  tx.queue_capacity = 4;
  tx.allowed_peer = Address(1, 0).packed();
  tx.qos_class = 2;
  tx.deadline_ns = 250'000;
  tx.bucket_capacity = 4;
  tx.bucket_refill_ns = 100'000;
  auto tx_index = (*comm)->AllocateEndpoint(tx);
  if (!rx_index.ok() || !tx_index.ok()) {
    return 1;
  }

  // Stage state exactly the way the library and the engine would — queue
  // ops, processed totals and telemetry together, under the proper boundary
  // roles — so the --metrics identities hold by construction. A regression
  // in the telemetry offsets or helpers shows up here as [MISMATCH].
  {
    waitfree::ScopedBoundaryRole app(waitfree::Writer::kApplication);
    // Application: post two receive buffers, send one message.
    for (int i = 0; i < 2; ++i) {
      auto buffer = (*comm)->AllocateBuffer();
      (*comm)->queue(*rx_index).Release(*buffer);
      (*comm)->telemetry(*rx_index).RecordApiPost();
    }
    auto buffer = (*comm)->AllocateBuffer();
    (*comm)->msg(*buffer).header->set_peer_address(Address(1, 0));
    (*comm)->queue(*tx_index).Release(*buffer);
    (*comm)->telemetry(*tx_index).RecordApiSend();
    (*comm)->telemetry(*tx_index).RecordDoorbell((*comm)->doorbell_ring().Ring(*tx_index));
  }
  {
    waitfree::ScopedBoundaryRole engine(waitfree::Writer::kEngine);
    // Engine: deliver one inbound message, drop one, transmit the send.
    shm::EndpointRecord& rx_record = (*comm)->endpoint(*rx_index);
    shm::TelemetryBlock& rx_telemetry = (*comm)->telemetry(*rx_index);
    rx_telemetry.NoteQueueDepth((*comm)->queue(*rx_index).ProcessableCount());
    (*comm)->queue(*rx_index).AdvanceProcess();
    rx_record.processed_total.Publish(rx_record.processed_total.ReadRelaxed() + 1);
    rx_telemetry.RecordEngineDelivery();
    rx_record.RecordDrop();

    shm::EndpointRecord& tx_record = (*comm)->endpoint(*tx_index);
    shm::TelemetryBlock& tx_telemetry = (*comm)->telemetry(*tx_index);
    tx_telemetry.NoteQueueDepth((*comm)->queue(*tx_index).ProcessableCount());
    tx_telemetry.RecordEngineTransmit();
    (*comm)->queue(*tx_index).AdvanceProcess();
    tx_record.processed_total.Publish(tx_record.processed_total.ReadRelaxed() + 1);
  }

  int failures = InspectOnce(**comm, options, /*quiescent=*/true);
  if (options.trace) {
    failures += TraceDemo(options.trace_path);
  }
  return failures == 0 ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--metrics] [--trace[=PATH]] [--watch[=SECONDS]] "
               "</shm_name | --demo>\n",
               argv0);
  return 1;
}

int Run(int argc, char** argv) {
  InspectOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      options.demo = true;
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace = true;
      options.trace_path = arg.substr(std::strlen("--trace="));
    } else if (arg == "--watch") {
      options.watch = true;
    } else if (arg.rfind("--watch=", 0) == 0) {
      options.watch = true;
      const long seconds = std::atol(arg.c_str() + std::strlen("--watch="));
      options.watch_seconds = seconds < 1 ? 1 : static_cast<unsigned>(seconds);
    } else if (!arg.empty() && arg[0] != '-') {
      options.target = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.demo == !options.target.empty()) {
    return Usage(argv[0]);  // Need exactly one of --demo / shm name.
  }
  return options.demo ? Demo(options) : InspectShm(options);
}

}  // namespace
}  // namespace flipc

int main(int argc, char** argv) { return flipc::Run(argc, argv); }
