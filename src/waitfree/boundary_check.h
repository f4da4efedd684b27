// The single-writer protection boundary and its opt-in race detector.
//
// FLIPC's correctness rests on a discipline the paper states but ordinary
// tooling cannot verify: every shared word in the communication buffer has
// exactly one writer — the application library or the messaging engine —
// and the two sides' words never share a cache line. ThreadSanitizer is
// blind to violations of the first rule, because both sides use atomic
// stores: a both-sides-write bug is a protocol corruption, not a data race
// in the C++ memory model.
//
// This component makes the rule machine-checkable. It has two halves:
//
//  1. A *cell ownership registry*: components declare, per shared word,
//     which side of the boundary owns (writes) it. Declarations live in a
//     side table keyed by cell address — NOT inside the cell — so the
//     communication-buffer layout is byte-identical whether the checker is
//     compiled in or not (the region is shared memory; its ABI must not
//     depend on a debug flag).
//
//  2. A *thread role binding*: a thread states which side of the boundary
//     it is executing as (`BoundaryRole::BindCurrentThread(Writer)` for
//     engine threads, `ScopedBoundaryRole` around application-library call
//     bodies). Every SingleWriterCell store then verifies that the calling
//     thread's role matches the cell's declared owner, and aborts with the
//     cell address, its label, the declared owner, and the offending role.
//
// Threads with no bound role are unchecked: allocation paths, tests and
// tools may legitimately touch both sides while the system is quiescent.
// `ScopedBoundaryExemption` marks the few in-protocol spots that reset the
// other side's words while an endpoint is provably inactive.
//
// Everything here compiles to nothing unless FLIPC_CHECK_SINGLE_WRITER is
// defined (CMake: -DFLIPC_CHECK_SINGLE_WRITER=ON). The checking build is a
// test configuration; the zero-cost default build is the product.
#ifndef SRC_WAITFREE_BOUNDARY_CHECK_H_
#define SRC_WAITFREE_BOUNDARY_CHECK_H_

#include <cstddef>
#include <cstdint>

namespace flipc::waitfree {

// Which side of the protection boundary owns (writes) a cell.
enum class Writer : std::uint8_t { kApplication, kEngine };

constexpr const char* WriterName(Writer w) {
  return w == Writer::kApplication ? "application" : "engine";
}

// Prints `message` prefixed with "FLIPC protection-boundary violation" to
// stderr and aborts. Used by the ownership checker and by protocol asserts
// in checking mode; defined unconditionally so headers can call it.
[[noreturn]] void BoundaryPanic(const char* message);

#ifdef FLIPC_CHECK_SINGLE_WRITER
inline constexpr bool kBoundaryCheckEnabled = true;

// --- Cell ownership registry (checking mode) -------------------------------

// Declares that `cell` is written only by `owner`. Idempotent for the same
// owner; a conflicting re-declaration aborts (two components disagree about
// the boundary). `label` should name the field, e.g. "EndpointRecord.process_count".
void DeclareCellOwner(const void* cell, Writer owner, const char* label);

// Removes declarations for every cell in [base, base + size): call when the
// memory holding declared cells is released or reformatted, so a later
// unrelated object at the same address does not inherit stale ownership.
void UndeclareCellRange(const void* base, std::size_t size);

// Verifies the calling thread may write `cell`: no-op if the thread has no
// bound role, is inside a ScopedBoundaryExemption, or the cell was never
// declared; aborts on an ownership mismatch.
void CheckCellWrite(const void* cell);

// --- Thread role binding (checking mode) -----------------------------------

struct BoundaryRole {
  // Binds the calling thread to one side of the boundary for its lifetime
  // (or until Unbind). Engine threads bind kEngine at startup.
  static void BindCurrentThread(Writer role);
  static void UnbindCurrentThread();
  // Whether the calling thread currently has a bound role, and which.
  static bool IsBound();
  static Writer Current();  // Only meaningful when IsBound().
};

// Binds a role for a scope, saving and restoring the previous binding, so
// single-threaded drivers (simulation tests, the model checker) can play
// both sides from one thread.
class ScopedBoundaryRole {
 public:
  explicit ScopedBoundaryRole(Writer role);
  ~ScopedBoundaryRole();
  ScopedBoundaryRole(const ScopedBoundaryRole&) = delete;
  ScopedBoundaryRole& operator=(const ScopedBoundaryRole&) = delete;

 private:
  bool prev_bound_;
  Writer prev_role_;
};

// Suspends ownership checking for a scope. For quiescent-state writes that
// are safe despite crossing the boundary (e.g. endpoint allocation resets
// the engine's cursors before publishing the endpoint as live). Nests.
class ScopedBoundaryExemption {
 public:
  ScopedBoundaryExemption();
  ~ScopedBoundaryExemption();
  ScopedBoundaryExemption(const ScopedBoundaryExemption&) = delete;
  ScopedBoundaryExemption& operator=(const ScopedBoundaryExemption&) = delete;
};

// Verifies a HandoffState transition (msg_state.h): the engine only ever
// marks buffers completed; the application only marks them free or ready.
// `state_value` is the MsgState about to be stored, as its underlying value.
void CheckHandoffStore(const void* cell, std::uint32_t state_value);

#else  // !FLIPC_CHECK_SINGLE_WRITER

inline constexpr bool kBoundaryCheckEnabled = false;

inline void DeclareCellOwner(const void*, Writer, const char*) {}
inline void UndeclareCellRange(const void*, std::size_t) {}
inline void CheckCellWrite(const void*) {}

struct BoundaryRole {
  static void BindCurrentThread(Writer) {}
  static void UnbindCurrentThread() {}
  static bool IsBound() { return false; }
  static Writer Current() { return Writer::kApplication; }
};

class ScopedBoundaryRole {
 public:
  explicit ScopedBoundaryRole(Writer) {}
  ScopedBoundaryRole(const ScopedBoundaryRole&) = delete;
  ScopedBoundaryRole& operator=(const ScopedBoundaryRole&) = delete;
};

class ScopedBoundaryExemption {
 public:
  ScopedBoundaryExemption() {}
  ScopedBoundaryExemption(const ScopedBoundaryExemption&) = delete;
  ScopedBoundaryExemption& operator=(const ScopedBoundaryExemption&) = delete;
};

inline void CheckHandoffStore(const void*, std::uint32_t) {}

#endif  // FLIPC_CHECK_SINGLE_WRITER

}  // namespace flipc::waitfree

#endif  // SRC_WAITFREE_BOUNDARY_CHECK_H_
