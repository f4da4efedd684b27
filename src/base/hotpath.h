// Hot-path purity annotations and guards.
//
// FLIPC's headline property is what is ABSENT from the messaging path: the
// OS kernel, locks, heap allocation, unbounded loops. Send/receive and the
// engine work unit are wait-free using plain acquire/release loads and
// stores (PAPER.md; docs/MEMORY_MODEL.md). PR 1 mechanized the
// single-writer rule; this header mechanizes wait-freedom itself, because
// hot-path regressions (a stray mutex, an allocation, a blocking call) are
// exactly the bugs that silently erase a low-latency design.
//
// Three pieces:
//
//  1. Scope markers. `FLIPC_HOT_PATH("label")` declares that the rest of
//     the enclosing scope is on the messaging hot path and must not
//     allocate, acquire a lock, or block. `FLIPC_HOT_PATH_IF(cond, label)`
//     arms the scope conditionally (the locked interface variants share
//     code with the lock-free ones but do not carry the obligation).
//     `FLIPC_HOT_PATH_EXEMPT("reason")` suspends the guards for a nested
//     region that models hardware or kernel work which is off the real
//     path by design (the simulated wire's DMA copy, the real-time
//     semaphore handoff, the engine-runner kick — each use documents why).
//
//  2. Guards. Under -DFLIPC_CHECK_HOT_PATH=ON the markers arm runtime
//     guards: a global operator new/delete replacement, and
//     lock-acquisition hooks in src/base/locks.h and the blocking
//     primitives. (Loop bounds are the static auditor's: see
//     FLIPC_BOUNDED_BY below.) A guard event inside an armed scope
//     aborts with the guard class and the enclosing annotation label
//     (GuardMode::kAbort, the default) or increments a per-class counter
//     (GuardMode::kCount — used by bench_micro_waitfree to report
//     allocations/locks per operation, and by negative tests). In the
//     default build every marker and hook compiles to nothing.
//
//  3. The static half. tools/flipc_hotpath_lint inspects the compiled
//     hot-path objects for undefined references to allocation, pthread and
//     blocking libc entry points, and enforces the source-level atomics
//     discipline (no raw std::atomic outside src/waitfree/ and
//     src/base/locks.h; no seq_cst anywhere). The runtime
//     guards catch what symbols cannot (an allocation on a cold branch of
//     a hot TU is fine; one inside an armed scope is not), and vice versa.
//
// C-level malloc() calls do not route through operator new and are not
// hooked at runtime (glibc removed __malloc_hook); they are caught by the
// symbol lint instead, which denies undefined malloc/calloc/realloc
// references in pure hot-path translation units, and by the static
// auditor (tools/flipc_static_audit), which bans C allocator calls inside
// every armed scope, `nolock` translation units included.
#ifndef SRC_BASE_HOTPATH_H_
#define SRC_BASE_HOTPATH_H_

#include <cstddef>
#include <cstdint>

// ---- Writer-role annotations (tools/flipc_static_audit) --------------------
//
// The single-writer rule is a property of ROLES, not threads: every write to
// a shared comm-buffer field must happen in code executing as that field's
// owning side. These macros declare the role of an entry point so the static
// protocol auditor can compute the call-graph closure and prove, without
// running anything, that each ownership-table field is written only under
// its owner role:
//
//   FLIPC_ROLE_APP        application side of the protection boundary
//                         (Endpoint::Send/Receive/..., buffer allocation)
//   FLIPC_ROLE_ENGINE     messaging-engine side (MessagingEngine::Step,
//                         EngineRunner::Loop)
//   FLIPC_ROLE_QUIESCENT  setup/teardown code that legitimately writes both
//                         sides while the structure is unattached or the
//                         endpoint slot is quiescent — the static analogue
//                         of ScopedBoundaryExemption (CommBuffer::Format,
//                         AllocateEndpoint)
//
// Zero-cost by construction: they expand to nothing. The auditor's token
// frontend reads the macro names straight from the source. A function may
// carry more than one role (it runs under either side's closure).
#define FLIPC_ROLE_APP
#define FLIPC_ROLE_ENGINE
#define FLIPC_ROLE_QUIESCENT

// ---- Progress annotations (tools/flipc_static_audit) -----------------------
//
// The bounded-progress certifier proves that every loop reachable from a
// wait-free entry point (a FLIPC_HOT_PATH scope) terminates in a bounded
// number of steps. Loops whose trip bound is a compile-time constant or a
// countdown are recognized automatically; everything else must be annotated:
//
//   FLIPC_BOUNDED_BY(expr)       placed as the statement immediately before
//                                a loop: the loop executes at most `expr`
//                                iterations (a ring/queue capacity, the
//                                endpoint table size, a histogram's bucket
//                                count). `expr` must name real in-scope state
//                                — it is syntax-checked (unevaluated), so the
//                                annotation cannot rot into referring to
//                                variables that no longer exist.
//   FLIPC_UNBOUNDED_WAIT(why)    placed before a loop that legitimately waits
//                                for another agent's progress (a lock spin, a
//                                blocking-receive park). Such a park site is
//                                permitted only OUTSIDE hot-path scopes and
//                                outside the hot closure; the certifier
//                                hard-errors on one reachable from a wait-free
//                                entry point.
//
// Both are statements that compile to nothing in every build mode; the
// auditor reads the macro names straight from the token stream.
#define FLIPC_BOUNDED_BY(expr) ((void)sizeof((expr)))
#define FLIPC_UNBOUNDED_WAIT(why) ((void)sizeof((why)))

namespace flipc::hotpath {

// What a guard observed inside an armed hot-path scope.
enum class GuardClass : std::uint8_t {
  kAllocation,   // operator new/delete (heap traffic)
  kLock,         // TasLock acquisition
  kBlocking,     // blocking primitive (semaphore wait/post, idle park)
};

constexpr const char* GuardClassName(GuardClass c) {
  switch (c) {
    case GuardClass::kAllocation:
      return "allocation";
    case GuardClass::kLock:
      return "lock acquisition";
    case GuardClass::kBlocking:
      return "blocking call";
  }
  return "?";
}

// What to do when a guard fires inside an armed scope.
enum class GuardMode : std::uint8_t {
  kAbort,  // print the class, detail and scope label; abort (default)
  kCount,  // increment the per-class counter and continue
};

// Events observed inside armed scopes since the last reset. Counted in both
// modes (in kAbort mode the process usually dies on the first one).
struct GuardCounters {
  std::uint64_t scope_entries = 0;
  std::uint64_t allocations = 0;
  std::uint64_t locks = 0;
  std::uint64_t blocking_calls = 0;
};

#ifdef FLIPC_CHECK_HOT_PATH
inline constexpr bool kHotPathCheckEnabled = true;

void SetGuardMode(GuardMode mode);
GuardMode CurrentGuardMode();
GuardCounters ReadGuardCounters();
void ResetGuardCounters();

// True when the calling thread is inside an armed, non-exempt hot-path
// scope; Label() names the innermost scope (only meaningful when true).
bool InHotPathScope();
const char* CurrentHotPathLabel();

// Guard entry points, called by the hooked primitives. No-ops unless the
// calling thread is inside an armed, non-exempt scope.
void OnAllocation(const char* what, std::size_t size);
void OnLockAcquire(const char* what);
void OnBlockingCall(const char* what);

// RAII scope marker. Out-of-line on purpose: referencing it pulls
// hotpath.o — and with it the operator new/delete replacement — into any
// binary that enters a hot-path scope.
class ScopedHotPath {
 public:
  explicit ScopedHotPath(const char* label, bool armed = true);
  ~ScopedHotPath();
  ScopedHotPath(const ScopedHotPath&) = delete;
  ScopedHotPath& operator=(const ScopedHotPath&) = delete;

 private:
  bool armed_;
};

// Suspends the guards for a nested region (nests). Every use must document
// why the region is off the real hot path.
class ScopedHotPathExemption {
 public:
  explicit ScopedHotPathExemption(const char* reason);
  ~ScopedHotPathExemption();
  ScopedHotPathExemption(const ScopedHotPathExemption&) = delete;
  ScopedHotPathExemption& operator=(const ScopedHotPathExemption&) = delete;
};

#define FLIPC_HP_CONCAT_IMPL(a, b) a##b
#define FLIPC_HP_CONCAT(a, b) FLIPC_HP_CONCAT_IMPL(a, b)

#define FLIPC_HOT_PATH(label) \
  ::flipc::hotpath::ScopedHotPath FLIPC_HP_CONCAT(flipc_hot_scope_, __COUNTER__)(label)
#define FLIPC_HOT_PATH_IF(armed, label)                                           \
  ::flipc::hotpath::ScopedHotPath FLIPC_HP_CONCAT(flipc_hot_scope_, __COUNTER__)( \
      (label), (armed))
#define FLIPC_HOT_PATH_EXEMPT(reason)                     \
  ::flipc::hotpath::ScopedHotPathExemption FLIPC_HP_CONCAT(flipc_hot_exempt_, \
                                                           __COUNTER__)(reason)

#else  // !FLIPC_CHECK_HOT_PATH

inline constexpr bool kHotPathCheckEnabled = false;

// Everything compiles to nothing: the default build is the product, and
// the annotated binaries must be unchanged (acceptance: the Figure 4 fit).
inline void SetGuardMode(GuardMode) {}
inline GuardMode CurrentGuardMode() { return GuardMode::kAbort; }
inline GuardCounters ReadGuardCounters() { return GuardCounters{}; }
inline void ResetGuardCounters() {}
inline bool InHotPathScope() { return false; }
inline const char* CurrentHotPathLabel() { return ""; }
inline void OnAllocation(const char*, std::size_t) {}
inline void OnLockAcquire(const char*) {}
inline void OnBlockingCall(const char*) {}

#define FLIPC_HOT_PATH(label) ((void)0)
#define FLIPC_HOT_PATH_IF(armed, label) ((void)0)
#define FLIPC_HOT_PATH_EXEMPT(reason) ((void)0)

#endif  // FLIPC_CHECK_HOT_PATH

}  // namespace flipc::hotpath

#endif  // SRC_BASE_HOTPATH_H_
