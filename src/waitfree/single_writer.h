// Single-writer shared cells.
//
// FLIPC's application<->engine synchronization must be wait-free and must
// work in a memory model with no atomic read-modify-write operations (the
// SCSI and Myrinet controllers the paper targets can only issue loads and
// stores to host memory). The design rule from the paper: separate or
// duplicate data so that the application and the messaging engine never
// concurrently write the same location. Every shared word therefore has
// exactly one writer, and plain atomic loads/stores with acquire/release
// ordering are sufficient.
//
// The paper's second tuning lesson — false sharing between app-written and
// engine-written words cost almost a factor of two — is encoded here as
// alignment: engine-written cells and app-written cells are placed on
// distinct cache lines by the communication-buffer layout (src/shm/), and
// the layout is audited at compile time by src/shm/ownership_layout.h.
//
// The single-writer rule itself is enforced by the opt-in ownership race
// detector (src/waitfree/boundary_check.h, -DFLIPC_CHECK_SINGLE_WRITER=ON):
// cells are declared with their owning side, threads bind a boundary role,
// and every store verifies the two match. In the default build the hooks
// compile to nothing and a cell is exactly a std::atomic<T>.
#ifndef SRC_WAITFREE_SINGLE_WRITER_H_
#define SRC_WAITFREE_SINGLE_WRITER_H_

#include <atomic>
#include <type_traits>

#include "src/base/types.h"
#include "src/waitfree/boundary_check.h"

namespace flipc::waitfree {

// A word written by one side and read by the other. Publish() makes all
// writes sequenced before it visible to a Read() that observes the value
// (release/acquire pairing).
template <typename T>
class SingleWriterCell {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  SingleWriterCell() = default;
  explicit SingleWriterCell(T initial) : value_(initial) {}

  // Registers this cell's owning side with the ownership race detector
  // (no-op unless FLIPC_CHECK_SINGLE_WRITER). The declaration lives in a
  // side table, never in the cell: the shared-memory layout must be
  // byte-identical with and without the checker.
  void DeclareOwner(Writer owner, const char* label) {
    DeclareCellOwner(this, owner, label);
  }

  // Reader side.
  T Read() const { return value_.load(std::memory_order_acquire); }
  T ReadRelaxed() const { return value_.load(std::memory_order_relaxed); }

  // Writer side.
  void Publish(T value) {
    CheckCellWrite(this);
    value_.store(value, std::memory_order_release);
  }
  void StoreRelaxed(T value) {
    CheckCellWrite(this);
    value_.store(value, std::memory_order_relaxed);
  }

 private:
  std::atomic<T> value_{};
};

static_assert(sizeof(SingleWriterCell<std::uint32_t>) == sizeof(std::uint32_t),
              "a cell must stay exactly its word: layouts are shared memory ABI");

}  // namespace flipc::waitfree

#endif  // SRC_WAITFREE_SINGLE_WRITER_H_
