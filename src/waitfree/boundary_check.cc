#include "src/waitfree/boundary_check.h"

#include <cstdio>
#include <cstdlib>

#ifdef FLIPC_CHECK_SINGLE_WRITER
#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "src/base/hotpath.h"
#endif

namespace flipc::waitfree {

void BoundaryPanic(const char* message) {
  std::fprintf(stderr, "FLIPC protection-boundary violation: %s\n", message);
  std::fflush(stderr);
  std::abort();
}

#ifdef FLIPC_CHECK_SINGLE_WRITER

namespace {

struct CellOwnership {
  Writer owner;
  const char* label;
};

// Registry of declared cells. A side table (rather than a tag inside the
// cell) keeps the shared-memory layout identical to non-checking builds.
// Guarded by a shared mutex: checks take the shared lock, (un)declarations
// the exclusive one. This is a debug mode; the lock cost is accepted.
struct Registry {
  std::shared_mutex mutex;
  std::unordered_map<const void*, CellOwnership> cells;
};

// The registry is created lazily on the cold DeclareCellOwner path — never
// from a check — so that combining this checker with the hot-path guard
// (-DFLIPC_CHECK_HOT_PATH=ON) cannot abort on the checker's own bookkeeping:
// checks on the hot path only ever load-acquire the pointer and, until the
// first declaration, see null and return. Leaked on purpose: the registry
// outlives all threads.
std::atomic<Registry*> g_registry{nullptr};

Registry& GetOrCreateRegistry() {
  Registry* existing = g_registry.load(std::memory_order_acquire);
  if (existing != nullptr) {
    return *existing;
  }
  // Checker-internal allocation, off any armed hot-path scope by design
  // (declaration happens at endpoint setup, not send/receive).
  FLIPC_HOT_PATH_EXEMPT("single-writer checker bookkeeping");
  auto* fresh = new Registry();
  if (g_registry.compare_exchange_strong(existing, fresh, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;  // another declarer won the race
  return *existing;
}

Registry* PeekRegistry() { return g_registry.load(std::memory_order_acquire); }

struct ThreadBoundaryState {
  bool bound = false;
  Writer role = Writer::kApplication;
  int exempt_depth = 0;
};

ThreadBoundaryState& Tls() {
  thread_local ThreadBoundaryState state;
  return state;
}

}  // namespace

void DeclareCellOwner(const void* cell, Writer owner, const char* label) {
  // Declarations happen at setup time, off the hot path; the registry (and
  // the map nodes inserted under the exclusive lock) are checker-internal.
  FLIPC_HOT_PATH_EXEMPT("single-writer checker bookkeeping");
  Registry& registry = GetOrCreateRegistry();
  std::unique_lock lock(registry.mutex);
  auto [it, inserted] =
      registry.cells.try_emplace(cell, CellOwnership{owner, label});
  if (!inserted && it->second.owner != owner) {
    char message[256];
    std::snprintf(message, sizeof(message),
                  "conflicting ownership declaration for cell %p: registered as %s-owned "
                  "(%s), re-declared as %s-owned (%s)",
                  cell, WriterName(it->second.owner), it->second.label, WriterName(owner),
                  label);
    lock.unlock();
    BoundaryPanic(message);
  }
  it->second.label = label;
}

void UndeclareCellRange(const void* base, std::size_t size) {
  Registry* registry_ptr = PeekRegistry();
  if (registry_ptr == nullptr) {
    return;  // nothing was ever declared
  }
  FLIPC_HOT_PATH_EXEMPT("single-writer checker bookkeeping");
  const auto* begin = static_cast<const char*>(base);
  const auto* end = begin + size;
  Registry& registry = *registry_ptr;
  std::unique_lock lock(registry.mutex);
  for (auto it = registry.cells.begin(); it != registry.cells.end();) {
    const auto* addr = static_cast<const char*>(it->first);
    if (addr >= begin && addr < end) {
      it = registry.cells.erase(it);
    } else {
      ++it;
    }
  }
}

void CheckCellWrite(const void* cell) {
  const ThreadBoundaryState& state = Tls();
  if (!state.bound || state.exempt_depth > 0) {
    return;
  }
  Registry* registry_ptr = PeekRegistry();
  if (registry_ptr == nullptr) {
    return;  // nothing declared yet, nothing to check
  }
  Writer owner;
  const char* label;
  {
    // Checker-internal bookkeeping: the registry lookup takes the shared
    // lock, which is accepted debug-mode cost (this whole function compiles
    // out of product builds). The exemption keeps the hot-path guard — and
    // the static certifier's purity closure, which reaches this function
    // through SingleWriterCell::Publish — from charging the checker's own
    // lock to the protocol.
    FLIPC_HOT_PATH_EXEMPT("single-writer checker bookkeeping");
    Registry& registry = *registry_ptr;
    std::shared_lock lock(registry.mutex);
    const auto it = registry.cells.find(cell);
    if (it == registry.cells.end()) {
      return;  // Undeclared cells (test fixtures, message headers) are unchecked.
    }
    owner = it->second.owner;
    label = it->second.label;
  }
  if (owner != state.role) {
    char message[256];
    std::snprintf(message, sizeof(message),
                  "cell %p (%s) is owned by the %s but was written by a thread bound to "
                  "the %s role",
                  cell, label, WriterName(owner), WriterName(state.role));
    BoundaryPanic(message);
  }
}

void BoundaryRole::BindCurrentThread(Writer role) {
  ThreadBoundaryState& state = Tls();
  state.bound = true;
  state.role = role;
}

void BoundaryRole::UnbindCurrentThread() { Tls().bound = false; }

bool BoundaryRole::IsBound() { return Tls().bound; }

Writer BoundaryRole::Current() { return Tls().role; }

ScopedBoundaryRole::ScopedBoundaryRole(Writer role) {
  ThreadBoundaryState& state = Tls();
  prev_bound_ = state.bound;
  prev_role_ = state.role;
  state.bound = true;
  state.role = role;
}

ScopedBoundaryRole::~ScopedBoundaryRole() {
  ThreadBoundaryState& state = Tls();
  state.bound = prev_bound_;
  state.role = prev_role_;
}

ScopedBoundaryExemption::ScopedBoundaryExemption() { ++Tls().exempt_depth; }

ScopedBoundaryExemption::~ScopedBoundaryExemption() { --Tls().exempt_depth; }

void CheckHandoffStore(const void* cell, std::uint32_t state_value) {
  const ThreadBoundaryState& state = Tls();
  if (!state.bound || state.exempt_depth > 0) {
    return;
  }
  // MsgState underlying values: 0 = kFree, 1 = kReady, 2 = kCompleted
  // (src/waitfree/msg_state.h). Ownership of the state field alternates with
  // the buffer's queue position, so the invariant checkable per store is the
  // transition direction: only the engine completes, only the application
  // frees or readies.
  constexpr std::uint32_t kCompleted = 2;
  const bool engine_only = state_value == kCompleted;
  const bool is_engine = state.role == Writer::kEngine;
  if (engine_only != is_engine) {
    char message[256];
    std::snprintf(message, sizeof(message),
                  "handoff state %p: value %u may only be stored by the %s, but the "
                  "writing thread is bound to the %s role",
                  cell, state_value, engine_only ? "engine" : "application",
                  WriterName(state.role));
    BoundaryPanic(message);
  }
}

#endif  // FLIPC_CHECK_SINGLE_WRITER

}  // namespace flipc::waitfree
