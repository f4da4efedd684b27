// Microbenchmarks (google-benchmark) for the wait-free structures.
//
// Not a paper artifact: these guard the constant-time claims the platform
// model's per-operation costs assume — queue release/acquire, engine
// peek/advance, drop-counter operations, the real-thread wire ring, and
// lock acquisition, all on the host CPU.
#include <cstring>
#include <memory>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/base/hotpath.h"
#include "src/base/locks.h"
#include "src/flipc/flipc.h"
#include "src/shm/comm_buffer.h"
#include "src/waitfree/buffer_queue.h"
#include "src/waitfree/doorbell_ring.h"
#include "src/waitfree/drop_counter.h"
#include "src/waitfree/spsc_ring.h"

namespace flipc {
namespace {

void BM_QueueReleaseAcquireCycle(benchmark::State& state) {
  waitfree::InlineBufferQueue<64> queue;
  waitfree::BufferQueueView& view = queue.view();
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.Release(i));
    benchmark::DoNotOptimize(view.PeekProcess());
    view.AdvanceProcess();
    benchmark::DoNotOptimize(view.Acquire());
    ++i;
  }
}
BENCHMARK(BM_QueueReleaseAcquireCycle);

void BM_QueueReleaseOnly(benchmark::State& state) {
  waitfree::InlineBufferQueue<1024> queue;
  waitfree::BufferQueueView& view = queue.view();
  std::uint32_t i = 0;
  for (auto _ : state) {
    if (!view.Release(i++)) {
      // Drain when full so the loop measures Release, not failure.
      state.PauseTiming();
      while (view.PeekProcess() != waitfree::kInvalidBuffer) {
        view.AdvanceProcess();
        view.Acquire();
      }
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_QueueReleaseOnly);

void BM_DropCounterRecord(benchmark::State& state) {
  waitfree::DropCounter counter;
  for (auto _ : state) {
    counter.RecordDrop();
  }
  benchmark::DoNotOptimize(counter.LifetimeCount());
}
BENCHMARK(BM_DropCounterRecord);

void BM_DropCounterReadAndReset(benchmark::State& state) {
  waitfree::DropCounter counter;
  for (auto _ : state) {
    counter.RecordDrop();
    benchmark::DoNotOptimize(counter.ReadAndReset());
  }
}
BENCHMARK(BM_DropCounterReadAndReset);

// One frame through the wire ring: reserve, write, commit, read, pop.
void BM_SpscFrameRingCycle(benchmark::State& state) {
  waitfree::InlineSpscFrameRing<64, 128> ring;
  waitfree::SpscFrameRingView& view = ring.view();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    std::byte* frame = view.TryReserve();
    std::memcpy(frame, &seq, sizeof(seq));
    view.Commit();
    std::uint64_t got = 0;
    std::memcpy(&got, view.Front(), sizeof(got));
    view.Pop();
    benchmark::DoNotOptimize(got);
    ++seq;
  }
}
BENCHMARK(BM_SpscFrameRingCycle);

void BM_TasLockUncontended(benchmark::State& state) {
  TasLock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_TasLockUncontended);

void BM_CommBufferAllocFree(benchmark::State& state) {
  shm::CommBufferConfig config;
  config.message_size = 128;
  config.buffer_count = 1024;
  auto comm = shm::CommBuffer::Create(config);
  for (auto _ : state) {
    auto index = (*comm)->AllocateBuffer();
    benchmark::DoNotOptimize(index);
    (void)(*comm)->FreeBuffer(*index);
  }
}
BENCHMARK(BM_CommBufferAllocFree);

void BM_EndpointSendPath(benchmark::State& state) {
  // The application-side cost of Figure 2's step 2 (queue a buffer) plus
  // step 5 (recover it), with the engine side simulated inline.
  shm::CommBufferConfig config;
  config.message_size = 128;
  config.buffer_count = 64;
  auto comm = shm::CommBuffer::Create(config);
  shm::CommBuffer::EndpointParams params;
  params.type = shm::EndpointType::kSend;
  auto endpoint = (*comm)->AllocateEndpoint(params);
  auto buffer = (*comm)->AllocateBuffer();
  waitfree::BufferQueueView queue = (*comm)->queue(*endpoint);
  for (auto _ : state) {
    queue.Release(*buffer);
    queue.AdvanceProcess();
    benchmark::DoNotOptimize(queue.Acquire());
  }
}
BENCHMARK(BM_EndpointSendPath);

// The paper implements endpoint-group receive "entirely in the library"
// because per-endpoint buffer ownership forbids merging the queues; the
// cost is therefore a linear scan. This measures that scan against group
// size with the message waiting on the LAST member (worst case).
void BM_GroupReceiveScan(benchmark::State& state) {
  const auto group_size = static_cast<std::uint32_t>(state.range(0));
  SimCluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 128;
  options.comm.buffer_count = 256;
  options.comm.max_endpoints = 128;
  auto cluster = SimCluster::Create(std::move(options)).value();
  Domain& b = cluster->domain(1);
  auto group = EndpointGroup::Create(b).value();

  std::vector<Endpoint> members;
  for (std::uint32_t i = 0; i < group_size; ++i) {
    Domain::EndpointOptions member;
    member.type = shm::EndpointType::kReceive;
    member.queue_depth = 4;
    member.group = group.get();
    members.push_back(b.CreateEndpoint(member).value());
  }
  auto buffer = b.AllocateBuffer().value();

  Domain& a = cluster->domain(0);
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend}).value();

  for (auto _ : state) {
    state.PauseTiming();
    // Land one message on the last member; the scan must walk everyone.
    (void)members.back().PostBufferUnlocked(buffer);
    auto msg = a.AllocateBuffer().value();
    (void)tx.SendUnlocked(msg, members.back().address());
    cluster->sim().Run();
    (void)tx.ReclaimUnlocked();
    (void)a.FreeBuffer(msg);
    state.ResumeTiming();

    auto result = group->Receive();
    benchmark::DoNotOptimize(result);

    state.PauseTiming();
    buffer = result.value().buffer;
    state.ResumeTiming();
  }
}
BENCHMARK(BM_GroupReceiveScan)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Full application-side API path: post + send + receive + reclaim against
// a manually stepped engine, i.e. the host-CPU cost of the library layer.
void BM_ApiRoundTrip(benchmark::State& state) {
  SimCluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 128;
  auto cluster = SimCluster::Create(std::move(options)).value();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive}).value();
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend}).value();
  auto rx_buf = b.AllocateBuffer().value();
  auto msg = a.AllocateBuffer().value();

  for (auto _ : state) {
    (void)rx.PostBufferUnlocked(rx_buf);
    (void)tx.SendUnlocked(msg, rx.address());
    cluster->sim().Run();
    rx_buf = rx.ReceiveUnlocked().value();
    msg = tx.ReclaimUnlocked().value();
  }
}
BENCHMARK(BM_ApiRoundTrip);

// One message through the whole real-thread path, stepped inline on one
// thread: an unlocked send, one Step() of the sending engine (plan, copy
// into the ThreadFabric ring) and of the receiving engine (poll, deliver),
// then the unlocked receive, re-post and reclaim.
class ApiCycleRig {
 public:
  ApiCycleRig() : fabric_(2) {
    for (NodeId n = 0; n < 2; ++n) {
      Domain::Options options;
      options.comm.message_size = 64;
      options.comm.buffer_count = 16;
      options.comm.max_endpoints = 4;
      options.node = n;
      domains_[n] = std::move(Domain::Create(options).value());
      engines_[n] = std::make_unique<engine::MessagingEngine>(
          domains_[n]->comm(), fabric_.wire(n), engine::EngineOptions());
      engines_[n]->SetClock(&RealClock::Instance());
    }
    tx_ = domains_[0]->CreateEndpoint({.type = shm::EndpointType::kSend}).value();
    rx_ = domains_[1]->CreateEndpoint({.type = shm::EndpointType::kReceive}).value();
    MessageBuffer posted = domains_[1]->AllocateBuffer().value();
    (void)rx_.PostBufferUnlocked(posted);
    msg_ = domains_[0]->AllocateBuffer().value();
  }
  // The engines hold references into the fabric and the domains.
  ApiCycleRig(const ApiCycleRig&) = delete;
  ApiCycleRig& operator=(const ApiCycleRig&) = delete;

  void Cycle() {
    (void)tx_.SendUnlocked(msg_, rx_.address());
    benchmark::DoNotOptimize(engines_[0]->Step());
    benchmark::DoNotOptimize(engines_[1]->Step());
    MessageBuffer got = rx_.ReceiveUnlocked().value();
    (void)rx_.PostBufferUnlocked(got);
    msg_ = tx_.ReclaimUnlocked().value();
  }

 private:
  simnet::ThreadFabric fabric_;
  std::unique_ptr<Domain> domains_[2];
  std::unique_ptr<engine::MessagingEngine> engines_[2];
  Endpoint tx_;
  Endpoint rx_;
  MessageBuffer msg_;
};

void BM_EndpointApiCycle(benchmark::State& state) {
  ApiCycleRig rig;
  for (auto _ : state) {
    rig.Cycle();
  }
}
BENCHMARK(BM_EndpointApiCycle);

// ---- Hot-path purity audit --------------------------------------------------
//
// With -DFLIPC_CHECK_HOT_PATH=ON the guard counters (GuardMode::kCount)
// measure allocations and lock acquisitions observed INSIDE armed hot-path
// scopes while driving the wait-free structures. The wait-free claim says
// both must be zero per operation; CI's perf-smoke job fails on a nonzero
// rate (the [MISMATCH] marker below). Without the guard build the audit
// reports "guards not armed" and the metrics are omitted.
// Guard counts for `messages` API cycles (ApiCycleRig), each run inside
// one armed scope. Counted, not aborted: the caller has set
// GuardMode::kCount.
hotpath::GuardCounters ApiCycleGuardCounters(std::uint64_t messages) {
  ApiCycleRig rig;
  hotpath::ResetGuardCounters();
  for (std::uint64_t i = 0; i < messages; ++i) {
    FLIPC_HOT_PATH("bench: API cycle over a ThreadFabric");
    rig.Cycle();
  }
  return hotpath::ReadGuardCounters();
}

void ReportHotPathPurity(bench::JsonReport& json) {
  json.AddConfig("hot_path_guards_armed",
                 std::string(hotpath::kHotPathCheckEnabled ? "yes" : "no"));
  if (!hotpath::kHotPathCheckEnabled) {
    std::printf("\nhot-path purity audit: guards not armed "
                "(build with -DFLIPC_CHECK_HOT_PATH=ON to measure)\n");
    return;
  }

  constexpr std::uint64_t kOps = 10000;
  hotpath::SetGuardMode(hotpath::GuardMode::kCount);
  hotpath::ResetGuardCounters();
  {
    waitfree::InlineBufferQueue<64> queue;
    waitfree::InlineDoorbellRing<64> ring;
    waitfree::DropCounter drops;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const auto index = static_cast<std::uint32_t>(i % 64);
      queue.view().Release(index);
      queue.view().AdvanceProcess();
      queue.view().Acquire();
      ring.view().Ring(index);
      ring.view().Pop();
      drops.RecordDrop();
      drops.ReadAndReset();
    }
  }
  const hotpath::GuardCounters counters = hotpath::ReadGuardCounters();
  const hotpath::GuardCounters wire = ApiCycleGuardCounters(kOps);
  hotpath::SetGuardMode(hotpath::GuardMode::kAbort);

  const double allocs_per_op = static_cast<double>(counters.allocations) / kOps;
  const double locks_per_op = static_cast<double>(counters.locks) / kOps;
  const double blocking_per_op = static_cast<double>(counters.blocking_calls) / kOps;
  const bool clean = counters.allocations == 0 && counters.locks == 0 &&
                     counters.blocking_calls == 0;
  const double wire_allocs_per_msg = static_cast<double>(wire.allocations) / kOps;
  const double wire_locks_per_msg = static_cast<double>(wire.locks) / kOps;
  const bool wire_clean = wire.scope_entries != 0 && wire.allocations == 0 &&
                          wire.locks == 0 && wire.blocking_calls == 0;

  std::printf("\nhot-path purity audit (%llu wait-free op groups, %llu armed scopes)\n",
              static_cast<unsigned long long>(kOps),
              static_cast<unsigned long long>(counters.scope_entries));
  std::printf("  %-28s %12.6f per op\n", "allocations", allocs_per_op);
  std::printf("  %-28s %12.6f per op\n", "lock acquisitions", locks_per_op);
  std::printf("  %-28s %12.6f per op\n", "blocking calls", blocking_per_op);
  std::printf("  verdict: %s\n",
              clean ? "OK — wait-free path is allocation- and lock-free"
                    : "[MISMATCH] hot-path scopes observed allocations/locks");
  std::printf("\nAPI cycle over a ThreadFabric: send, both engines stepped, receive, post, "
              "reclaim (%llu messages, %llu armed scopes)\n",
              static_cast<unsigned long long>(kOps),
              static_cast<unsigned long long>(wire.scope_entries));
  std::printf("  %-28s %12.6f per msg\n", "allocations", wire_allocs_per_msg);
  std::printf("  %-28s %12.6f per msg\n", "lock acquisitions", wire_locks_per_msg);
  std::printf("  %-28s %12.6f per msg\n", "blocking calls",
              static_cast<double>(wire.blocking_calls) / kOps);
  std::printf("  verdict: %s\n",
              wire_clean ? "OK — the API and real-thread wire path is allocation- and lock-free"
                         : "[MISMATCH] the API cycle observed allocations/locks");

  json.AddMetric("hot_path_allocs_per_op", allocs_per_op, "count");
  json.AddMetric("hot_path_locks_per_op", locks_per_op, "count");
  json.AddMetric("hot_path_blocking_per_op", blocking_per_op, "count");
  json.AddMetric("hot_path_scope_entries", static_cast<double>(counters.scope_entries),
                 "count");
  json.AddMetric("wire_allocs_per_msg", wire_allocs_per_msg, "count");
  json.AddMetric("wire_locks_per_msg", wire_locks_per_msg, "count");
}

}  // namespace
}  // namespace flipc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  flipc::bench::JsonReport json(argc, argv, "micro_waitfree");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  flipc::ReportHotPathPurity(json);
  return 0;
}
