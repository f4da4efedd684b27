#include "src/base/hotpath.h"

#ifdef FLIPC_CHECK_HOT_PATH

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace flipc::hotpath {
namespace {

// Per-thread scope state. Plain-old-data with constant initialization only:
// the allocation guard runs inside operator new, which can be reached
// before main() and during thread teardown, so this must never itself
// allocate or run dynamic initializers.
constexpr int kMaxScopeDepth = 16;

struct ThreadHotPathState {
  int depth = 0;         // armed scopes entered
  int exempt_depth = 0;  // nested exemptions
  const char* labels[kMaxScopeDepth] = {};
};

thread_local ThreadHotPathState tls_state;

// Process-wide mode and counters. Relaxed atomics: counters are statistics,
// and the mode is set from quiescent test/bench code.
std::atomic<std::uint8_t> g_mode{static_cast<std::uint8_t>(GuardMode::kAbort)};

std::atomic<std::uint64_t> g_scope_entries{0};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_locks{0};
std::atomic<std::uint64_t> g_blocking{0};

std::atomic<std::uint64_t>& CounterFor(GuardClass c) {
  switch (c) {
    case GuardClass::kAllocation:
      return g_allocations;
    case GuardClass::kLock:
      return g_locks;
    case GuardClass::kBlocking:
      return g_blocking;
  }
  return g_allocations;
}

bool InArmedScope(const ThreadHotPathState& state) {
  return state.depth > 0 && state.exempt_depth == 0;
}

// A guard observed `cls` inside an armed scope: count it, and in abort mode
// die with the class, the detail and the enclosing annotation label. Uses
// only snprintf/fprintf (no allocation: we may be inside operator new).
void GuardEvent(GuardClass cls, const char* what, std::size_t size) {
  const ThreadHotPathState& state = tls_state;
  CounterFor(cls).fetch_add(1, std::memory_order_relaxed);
  if (static_cast<GuardMode>(g_mode.load(std::memory_order_relaxed)) ==
      GuardMode::kCount) {
    return;
  }
  const char* label =
      state.depth > 0 && state.depth <= kMaxScopeDepth ? state.labels[state.depth - 1] : "?";
  char message[256];
  if (cls == GuardClass::kAllocation && size != 0) {
    std::snprintf(message, sizeof(message),
                  "FLIPC hot-path violation: %s (%s, %zu bytes) inside hot-path scope "
                  "'%s'\n",
                  GuardClassName(cls), what, size, label);
  } else {
    std::snprintf(message, sizeof(message),
                  "FLIPC hot-path violation: %s (%s) inside hot-path scope '%s'\n",
                  GuardClassName(cls), what, label);
  }
  std::fputs(message, stderr);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void SetGuardMode(GuardMode mode) {
  g_mode.store(static_cast<std::uint8_t>(mode), std::memory_order_relaxed);
}

GuardMode CurrentGuardMode() {
  return static_cast<GuardMode>(g_mode.load(std::memory_order_relaxed));
}

GuardCounters ReadGuardCounters() {
  GuardCounters out;
  out.scope_entries = g_scope_entries.load(std::memory_order_relaxed);
  out.allocations = g_allocations.load(std::memory_order_relaxed);
  out.locks = g_locks.load(std::memory_order_relaxed);
  out.blocking_calls = g_blocking.load(std::memory_order_relaxed);
  return out;
}

void ResetGuardCounters() {
  g_scope_entries.store(0, std::memory_order_relaxed);
  g_allocations.store(0, std::memory_order_relaxed);
  g_locks.store(0, std::memory_order_relaxed);
  g_blocking.store(0, std::memory_order_relaxed);
}

bool InHotPathScope() { return InArmedScope(tls_state); }

const char* CurrentHotPathLabel() {
  const ThreadHotPathState& state = tls_state;
  return state.depth > 0 && state.depth <= kMaxScopeDepth ? state.labels[state.depth - 1]
                                                          : "";
}

void OnAllocation(const char* what, std::size_t size) {
  if (InArmedScope(tls_state)) {
    GuardEvent(GuardClass::kAllocation, what, size);
  }
}

void OnLockAcquire(const char* what) {
  if (InArmedScope(tls_state)) {
    GuardEvent(GuardClass::kLock, what, 0);
  }
}

void OnBlockingCall(const char* what) {
  if (InArmedScope(tls_state)) {
    GuardEvent(GuardClass::kBlocking, what, 0);
  }
}

ScopedHotPath::ScopedHotPath(const char* label, bool armed) : armed_(armed) {
  if (!armed_) {
    return;
  }
  ThreadHotPathState& state = tls_state;
  if (state.depth < kMaxScopeDepth) {
    state.labels[state.depth] = label;
  }
  ++state.depth;
  g_scope_entries.fetch_add(1, std::memory_order_relaxed);
}

ScopedHotPath::~ScopedHotPath() {
  if (armed_) {
    --tls_state.depth;
  }
}

ScopedHotPathExemption::ScopedHotPathExemption(const char* /*reason*/) {
  ++tls_state.exempt_depth;
}

ScopedHotPathExemption::~ScopedHotPathExemption() { --tls_state.exempt_depth; }

}  // namespace flipc::hotpath

// ---- Global allocation guard ------------------------------------------------
//
// Replacing operator new/delete process-wide is what makes the guard
// airtight: std::vector growth, std::function capture, std::string — all
// route through here, and any of them inside an armed hot-path scope is a
// violation. Outside armed scopes this is a single TLS check on top of
// malloc/free. Only compiled under FLIPC_CHECK_HOT_PATH; the default build
// keeps the toolchain's allocator untouched.

namespace {

void* GuardedAlloc(std::size_t size, std::size_t align, const char* what) {
  flipc::hotpath::OnAllocation(what, size);
  void* p = nullptr;
  if (align > alignof(std::max_align_t)) {
    // aligned_alloc requires size to be a multiple of the alignment.
    p = std::aligned_alloc(align, ((size + align - 1) / align) * align);
  } else {
    p = std::malloc(size != 0 ? size : 1);
  }
  return p;
}

void GuardedFree(void* p, const char* what) {
  if (p == nullptr) {
    return;
  }
  flipc::hotpath::OnAllocation(what, 0);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = GuardedAlloc(size, 0, "operator new");
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) {
  void* p = GuardedAlloc(size, 0, "operator new[]");
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = GuardedAlloc(size, static_cast<std::size_t>(align), "operator new(align)");
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = GuardedAlloc(size, static_cast<std::size_t>(align), "operator new[](align)");
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return GuardedAlloc(size, 0, "operator new(nothrow)");
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return GuardedAlloc(size, 0, "operator new[](nothrow)");
}

void operator delete(void* p) noexcept { GuardedFree(p, "operator delete"); }
void operator delete[](void* p) noexcept { GuardedFree(p, "operator delete[]"); }
void operator delete(void* p, std::size_t) noexcept { GuardedFree(p, "operator delete"); }
void operator delete[](void* p, std::size_t) noexcept {
  GuardedFree(p, "operator delete[]");
}
void operator delete(void* p, std::align_val_t) noexcept {
  GuardedFree(p, "operator delete(align)");
}
void operator delete[](void* p, std::align_val_t) noexcept {
  GuardedFree(p, "operator delete[](align)");
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  GuardedFree(p, "operator delete(align)");
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  GuardedFree(p, "operator delete[](align)");
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  GuardedFree(p, "operator delete(nothrow)");
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  GuardedFree(p, "operator delete[](nothrow)");
}

#endif  // FLIPC_CHECK_HOT_PATH
