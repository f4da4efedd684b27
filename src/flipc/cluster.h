// Ready-made FLIPC assemblies.
//
//   Cluster    — real-concurrency: one Domain per node, one native
//                MessagingEngine per node on its own EngineRunner thread
//                (the "message coprocessor"), all over a ThreadFabric.
//                Used by the examples and the stress tests.
//
//   SimCluster — discrete-event: the same domains and engines driven by
//                SimEngineDrivers over a SimFabric with a chosen link
//                model. All paper-reproduction benchmarks use this.
//
// Both wire the kick paths: Domain::KickEngine() (after sends) and the
// fabric delivery callback both wake the node's engine. In a Cluster a
// kick goes to the node's EngineWaker, which costs one load unless the
// node's runner is parked.
#ifndef SRC_FLIPC_CLUSTER_H_
#define SRC_FLIPC_CLUSTER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "src/base/status.h"
#include "src/engine/engine_runner.h"
#include "src/engine/messaging_engine.h"
#include "src/engine/platform_model.h"
#include "src/engine/sim_engine_driver.h"
#include "src/flipc/domain.h"
#include "src/kkt/kkt_engine.h"
#include "src/simnet/des.h"
#include "src/simnet/fabric.h"
#include "src/simnet/link_model.h"
#include "src/simos/semaphore_table.h"

namespace flipc {

// ---------------------------------------------------------------------------

class Cluster {
 public:
  struct Options {
    std::uint32_t node_count = 2;
    shm::CommBufferConfig comm;
    engine::EngineOptions engine;
    // Longest idle park per runner thread (EngineRunner::Options); the
    // park-cap regression test raises this to make a missed unthrottle
    // deadline visible as a large, deterministic delay.
    DurationNs max_idle_park_ns = 200'000;
  };

  static Result<std::unique_ptr<Cluster>> Create(const Options& options);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Starts/stops all engine threads. Create() returns a stopped cluster.
  void Start();
  void Stop();

  std::uint32_t node_count() const { return static_cast<std::uint32_t>(nodes_.size()); }
  Domain& domain(NodeId node) { return *nodes_[node]->domain; }
  // The node's engine and its runner; both absent between KillEngine and
  // RestartEngine.
  engine::MessagingEngine& engine(NodeId node) { return *nodes_[node]->engine; }
  engine::EngineRunner& runner(NodeId node) { return *nodes_[node]->runner; }
  // Whether the node's engine currently exists (false between KillEngine
  // and RestartEngine).
  bool engine_alive(NodeId node) const;

  // ---- Failure injection (DESIGN.md §14) ----

  // Murders the node's engine mid-traffic: stops its runner thread and
  // destroys runner and engine, abandoning the comm-buffer state exactly
  // as a crashed coprocessor would. Application threads may keep sending
  // throughout (their endpoints simply stop draining, and nothing polls
  // the node's wire). Returns false if the engine is already dead.
  bool KillEngine(NodeId node);

  // Resurrects a killed engine: builds a fresh engine over the abandoned
  // comm buffer, rebuilds its scheduling state via
  // MessagingEngine::RecoverFromBuffer(), and starts a new runner when the
  // cluster is started. Returns false if the engine is alive.
  bool RestartEngine(NodeId node);
  // The node engine's counters (all zero while it is dead).
  engine::EngineStats aggregate_stats(NodeId node) const;
  simos::SemaphoreTable& semaphores() { return semaphores_; }

 private:
  struct Node {
    // The wake side of every runner this node ever runs (declared first, so
    // it outlives them); kicks go here and never touch engine or runner.
    engine::EngineWaker waker;
    std::unique_ptr<Domain> domain;
    std::unique_ptr<engine::MessagingEngine> engine;
    std::unique_ptr<engine::EngineRunner> runner;
    // Guards engine and runner against accessors racing
    // KillEngine/RestartEngine swaps. Runner joins happen outside it.
    mutable std::mutex runner_mutex;
  };

  // Builds the node's engine and (stopped) runner over its comm buffer.
  void BuildEngine(NodeId node_id);

  Cluster() = default;

  simos::SemaphoreTable semaphores_;
  std::unique_ptr<simnet::ThreadFabric> fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
  Options options_;  // RestartEngine rebuilds engines from these
  bool started_ = false;
};

// ---------------------------------------------------------------------------

class SimCluster {
 public:
  enum class EngineKind { kNative, kKkt };

  struct Options {
    std::uint32_t node_count = 2;
    shm::CommBufferConfig comm;
    engine::EngineOptions engine;
    engine::PlatformModel model;          // calibrated costs (Paragon default)
    EngineKind engine_kind = EngineKind::kNative;
    engine::KktModel kkt;                 // used when engine_kind == kKkt
    // Link model factory selector; default Paragon mesh sized to the node
    // count (width = ceil(sqrt(n))).
    std::unique_ptr<simnet::LinkModel> link_model;
    // Fabric-level failure injection (a seeded FaultPlan); the default is
    // the perfectly reliable fabric FLIPC assumes.
    simnet::SimFabric::Options fabric;
  };

  static Result<std::unique_ptr<SimCluster>> Create(Options options);
  ~SimCluster();
  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  simnet::Simulator& sim() { return sim_; }
  simnet::SimFabric& fabric() { return *fabric_; }
  std::uint32_t node_count() const { return static_cast<std::uint32_t>(nodes_.size()); }
  Domain& domain(NodeId node) { return *nodes_[node]->domain; }
  engine::MessagingEngine& engine(NodeId node) { return *nodes_[node]->engine; }
  engine::SimEngineDriver& driver(NodeId node) { return *nodes_[node]->driver; }
  const engine::PlatformModel& model() const { return model_; }
  simos::SemaphoreTable& semaphores() { return semaphores_; }

 private:
  struct Node {
    std::unique_ptr<Domain> domain;
    std::unique_ptr<engine::MessagingEngine> engine;
    std::unique_ptr<engine::SimEngineDriver> driver;
  };

  SimCluster() = default;

  simnet::Simulator sim_;
  engine::PlatformModel model_;
  simos::SemaphoreTable semaphores_;
  std::unique_ptr<simnet::SimFabric> fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace flipc

#endif  // SRC_FLIPC_CLUSTER_H_
