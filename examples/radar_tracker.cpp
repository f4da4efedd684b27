// Radar tracker: the event-driven distributed real-time scenario from the
// paper's introduction (think AEGIS/AWACS-style command and control).
//
// Three sensor nodes stream ~120-byte track updates — exactly the "medium"
// message class: "The events cannot be described by very small messages,
// and aggregation of events into larger messages is limited by the impact
// of the aggregation delay on system response."
//
// The tracker node demonstrates the paper's real-time machinery:
//   * two traffic classes on separate endpoints with separate buffer
//     resources — threat detections must never lose buffers to routine
//     telemetry ("the system ... must also ensure that the latter message
//     does not consume resources required to handle the former");
//   * an endpoint group with a blocking receive: the awakened thread is
//     presented to the scheduler via a real-time semaphore, with the
//     threat handler waiting at higher priority — no interrupting upcalls.
//
// Build & run:  ./build/examples/radar_tracker
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "src/flipc/flipc.h"

namespace {

constexpr std::uint32_t kSensors = 3;
constexpr std::uint32_t kTrackerNode = kSensors;
constexpr std::uint32_t kUpdatesPerSensor = 120;
constexpr std::uint32_t kThreatEvery = 20;  // every 20th contact is a threat

// A 120-byte track update, the paper's flagship message size.
struct TrackUpdate {
  std::uint32_t sensor_id;
  std::uint32_t track_id;
  std::uint32_t is_threat;
  float position[9];
  float velocity[9];
  float covariance[9];
  std::uint8_t pad[120 - 3 * sizeof(std::uint32_t) - 27 * sizeof(float)];
};
static_assert(sizeof(TrackUpdate) == 120);

}  // namespace

int main() {
  flipc::Cluster::Options options;
  options.node_count = kSensors + 1;
  options.comm.message_size = 128;  // 120-byte payload + 8-byte FLIPC header
  options.comm.buffer_count = 256;
  auto cluster = flipc::Cluster::Create(options);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster creation failed\n");
    return 1;
  }
  (*cluster)->Start();
  flipc::Domain& tracker = (*cluster)->domain(kTrackerNode);

  // --- Tracker setup: one endpoint (and buffer pool) per traffic class ---
  auto routine_group = flipc::EndpointGroup::Create(tracker);
  auto threat_group = flipc::EndpointGroup::Create(tracker);
  if (!routine_group.ok() || !threat_group.ok()) {
    return 1;
  }
  auto routine_rx = tracker.CreateEndpoint({.type = flipc::shm::EndpointType::kReceive,
                                            .queue_depth = 32,
                                            .group = routine_group->get()});
  auto threat_rx = tracker.CreateEndpoint({.type = flipc::shm::EndpointType::kReceive,
                                           .queue_depth = 8,
                                           .group = threat_group->get()});
  if (!routine_rx.ok() || !threat_rx.ok()) {
    return 1;
  }
  // Resource control is explicit: 24 buffers for telemetry, 8 reserved for
  // threats. A telemetry burst can exhaust ITS pool, never the threat pool.
  for (int i = 0; i < 24; ++i) {
    auto buffer = tracker.AllocateBuffer();
    (void)routine_rx->PostBuffer(*buffer);
  }
  for (int i = 0; i < 8; ++i) {
    auto buffer = tracker.AllocateBuffer();
    (void)threat_rx->PostBuffer(*buffer);
  }

  std::atomic<std::uint32_t> threats_handled{0};
  std::atomic<std::uint32_t> routine_handled{0};
  std::atomic<bool> shutting_down{false};

  // Threat thread: blocks at HIGH priority on the threat group. When a
  // threat and a telemetry message are both pending, the semaphore wakes
  // this thread first.
  std::thread threat_thread([&] {
    for (;;) {
      auto result = (*threat_group)->ReceiveBlocking(/*priority=*/10, 200'000'000);
      if (!result.ok()) {
        if (shutting_down.load()) {
          return;
        }
        continue;
      }
      const auto* update = result->buffer.As<TrackUpdate>();
      if (update != nullptr && update->is_threat != 0) {
        threats_handled.fetch_add(1);
      }
      (void)result->endpoint.PostBuffer(result->buffer);
    }
  });

  // Telemetry thread: blocks at LOW priority on the routine group.
  std::thread routine_thread([&] {
    for (;;) {
      auto result = (*routine_group)->ReceiveBlocking(/*priority=*/1, 200'000'000);
      if (!result.ok()) {
        if (shutting_down.load()) {
          return;
        }
        continue;
      }
      routine_handled.fetch_add(1);
      (void)result->endpoint.PostBuffer(result->buffer);
    }
  });

  // --- Sensors: each streams track updates, flagging periodic threats ---
  std::vector<std::thread> sensors;
  for (std::uint32_t s = 0; s < kSensors; ++s) {
    sensors.emplace_back([&, s] {
      flipc::Domain& domain = (*cluster)->domain(s);
      auto tx = domain.CreateEndpoint(
          {.type = flipc::shm::EndpointType::kSend, .queue_depth = 8});
      if (!tx.ok()) {
        return;
      }
      auto message = domain.AllocateBuffer();
      for (std::uint32_t i = 0; i < kUpdatesPerSensor; ++i) {
        auto* update = message->As<TrackUpdate>();
        *update = TrackUpdate{};
        update->sensor_id = s;
        update->track_id = i;
        update->is_threat = (i % kThreatEvery == 0) ? 1 : 0;
        const flipc::Address dst =
            update->is_threat ? threat_rx->address() : routine_rx->address();
        while (!tx->Send(*message, dst).ok()) {
          std::this_thread::yield();  // queue full: back off (explicit resource control)
        }
        // Recover the buffer before reusing it (Figure 2, step 5).
        for (;;) {
          auto reclaimed = tx->Reclaim();
          if (reclaimed.ok()) {
            message = *reclaimed;
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& sensor : sensors) {
    sensor.join();
  }

  const std::uint32_t threats_expected = kSensors * (kUpdatesPerSensor / kThreatEvery);
  const std::uint32_t routine_expected = kSensors * kUpdatesPerSensor - threats_expected;
  while (threats_handled.load() + routine_handled.load() <
         threats_expected + routine_expected - routine_rx->DropCount() -
             threat_rx->DropCount()) {
    std::this_thread::yield();
  }
  shutting_down.store(true);
  threat_thread.join();
  routine_thread.join();
  (*cluster)->Stop();

  std::printf("radar tracker processed %u threat contacts (expected %u) and %u routine "
              "updates (expected %u)\n",
              threats_handled.load(), threats_expected, routine_handled.load(),
              routine_expected);
  std::printf("drop counters — threat endpoint: %llu (must be 0: reserved buffers), "
              "telemetry endpoint: %llu (losses tolerated)\n",
              static_cast<unsigned long long>(threat_rx->DropCount()),
              static_cast<unsigned long long>(routine_rx->DropCount()));
  return threat_rx->DropCount() == 0 && threats_handled.load() == threats_expected ? 0 : 1;
}
