#include "src/flipc/cluster.h"

#include <cmath>
#include <utility>

#include "src/base/thread_annotations.h"

namespace flipc {

// ================================ Cluster ===================================

Result<std::unique_ptr<Cluster>> Cluster::Create(const Options& options) {
  auto cluster = std::unique_ptr<Cluster>(new Cluster());
  cluster->options_ = options;  // RestartEngine rebuilds engines from these.
  // Ring frames sized to the comm buffer's messages: a FLIPC payload
  // (message_size less the 8-byte header) always fits.
  cluster->fabric_ =
      std::make_unique<simnet::ThreadFabric>(options.node_count, options.comm.message_size);

  for (NodeId n = 0; n < options.node_count; ++n) {
    auto node = std::make_unique<Node>();
    Domain::Options domain_options;
    domain_options.comm = options.comm;
    domain_options.node = n;
    FLIPC_ASSIGN_OR_RETURN(node->domain,
                           Domain::Create(domain_options, &cluster->semaphores_));

    // Sends, fabric deliveries and drains of the node's outbound rings all
    // wake the node's engine through the node's waker, which outlives every
    // runner: between KillEngine and RestartEngine nothing is parked on it,
    // so a kick costs one load and wakes nobody. No lock is taken, and no
    // fence executed, unless a runner is parked.
    engine::EngineWaker* waker = &node->waker;
    const auto kick = [waker] { waker->Wake(); };
    node->domain->SetEngineKick(kick);
    cluster->fabric_->SetDeliveryCallback(n, kick);

    cluster->nodes_.push_back(std::move(node));
    cluster->BuildEngine(n);
  }
  return cluster;
}

Cluster::~Cluster() { Stop(); }

void Cluster::BuildEngine(NodeId node_id) {
  Node& node = *nodes_[node_id];
  auto eng = std::make_unique<engine::MessagingEngine>(
      node.domain->comm(), fabric_->wire(node_id), options_.engine,
      /*model=*/nullptr, &semaphores_);
  eng->SetClock(&RealClock::Instance());
  engine::EngineRunner::Options runner_options;
  runner_options.max_idle_park_ns = options_.max_idle_park_ns;
  auto runner = std::make_unique<engine::EngineRunner>(*eng, node.waker, runner_options);
  ScopedLock<std::mutex> guard(node.runner_mutex);
  node.engine = std::move(eng);
  node.runner = std::move(runner);
}

engine::EngineStats Cluster::aggregate_stats(NodeId node) const {
  ScopedLock<std::mutex> guard(nodes_[node]->runner_mutex);
  return nodes_[node]->engine != nullptr ? nodes_[node]->engine->stats()
                                         : engine::EngineStats{};
}

void Cluster::Start() {
  if (started_) {
    return;
  }
  for (auto& node : nodes_) {
    ScopedLock<std::mutex> guard(node->runner_mutex);
    if (node->runner != nullptr) {
      node->runner->Start();
    }
  }
  started_ = true;
}

void Cluster::Stop() {
  if (!started_) {
    return;
  }
  for (auto& node : nodes_) {
    // Move the runner out under the mutex, join outside it, so accessors
    // on other threads never wait on a join.
    std::unique_ptr<engine::EngineRunner> runner;
    {
      ScopedLock<std::mutex> guard(node->runner_mutex);
      runner = std::move(node->runner);
    }
    if (runner != nullptr) {
      runner->Stop();
    }
    ScopedLock<std::mutex> guard(node->runner_mutex);
    node->runner = std::move(runner);
  }
  started_ = false;
}

bool Cluster::engine_alive(NodeId node) const {
  ScopedLock<std::mutex> guard(nodes_[node]->runner_mutex);
  return nodes_[node]->engine != nullptr;
}

bool Cluster::KillEngine(NodeId node_id) {
  Node& node = *nodes_[node_id];
  std::unique_ptr<engine::EngineRunner> runner;
  {
    ScopedLock<std::mutex> guard(node.runner_mutex);
    if (node.engine == nullptr) {
      return false;
    }
    runner = std::move(node.runner);
  }
  // Join outside the mutex, as in Stop(). After the join nothing references
  // the engine; destroy it.
  if (runner != nullptr) {
    runner->Stop();
    runner.reset();
  }
  ScopedLock<std::mutex> guard(node.runner_mutex);
  node.engine.reset();
  return true;
}

bool Cluster::RestartEngine(NodeId node_id) {
  Node& node = *nodes_[node_id];
  {
    ScopedLock<std::mutex> guard(node.runner_mutex);
    if (node.engine != nullptr) {
      return false;
    }
  }
  // Recover before any runner can step the engine: RecoverFromBuffer must
  // run in the quiescent role. The runner is built stopped, so the engine
  // is still quiescent here.
  BuildEngine(node_id);
  engine::EngineRunner* runner = nullptr;
  {
    ScopedLock<std::mutex> guard(node.runner_mutex);
    node.engine->RecoverFromBuffer();
    runner = node.runner.get();
  }
  if (started_) {
    // The loop steps before it ever parks, so work released while the
    // engine was down is served without a kick.
    runner->Start();
  }
  return true;
}

// =============================== SimCluster =================================

Result<std::unique_ptr<SimCluster>> SimCluster::Create(Options options) {
  auto cluster = std::unique_ptr<SimCluster>(new SimCluster());
  cluster->model_ = options.model;

  std::unique_ptr<simnet::LinkModel> link = std::move(options.link_model);
  if (link == nullptr) {
    simnet::MeshLinkModel::Params mesh;
    mesh.width = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(options.node_count))));
    if (mesh.width == 0) {
      mesh.width = 1;
    }
    link = std::make_unique<simnet::MeshLinkModel>(mesh);
  }
  cluster->fabric_ = std::make_unique<simnet::SimFabric>(
      cluster->sim_, std::move(link), options.node_count, std::move(options.fabric));

  for (NodeId n = 0; n < options.node_count; ++n) {
    auto node = std::make_unique<Node>();
    Domain::Options domain_options;
    domain_options.comm = options.comm;
    domain_options.node = n;
    FLIPC_ASSIGN_OR_RETURN(node->domain,
                           Domain::Create(domain_options, &cluster->semaphores_));

    if (options.engine_kind == EngineKind::kKkt) {
      node->engine = std::make_unique<kkt::KktMessagingEngine>(
          node->domain->comm(), cluster->fabric_->wire(n), options.engine, &cluster->model_,
          &options.kkt, &cluster->semaphores_);
    } else {
      node->engine = std::make_unique<engine::MessagingEngine>(
          node->domain->comm(), cluster->fabric_->wire(n), options.engine, &cluster->model_,
          &cluster->semaphores_);
    }
    node->engine->SetClock(&cluster->sim_.clock());
    node->driver = std::make_unique<engine::SimEngineDriver>(cluster->sim_, *node->engine);

    engine::SimEngineDriver* driver = node->driver.get();
    node->domain->SetEngineKick([driver] { driver->Kick(); });
    cluster->fabric_->SetDeliveryCallback(n, [driver] { driver->Kick(); });

    cluster->nodes_.push_back(std::move(node));
  }
  return cluster;
}

SimCluster::~SimCluster() = default;

}  // namespace flipc
