// Rule 2 (memory-order policy) — seeded violations the auditor must reject.
#include "audit_stubs.h"

struct Queue {
  Cursors cursors;

  // A relaxed store never publishes the message payload written before it.
  FLIPC_ROLE_APP void SloppyRelease() {
    cursors.release_count.StoreRelaxed(1);  // AUDIT-EXPECT: must be written with Publish()
  }

  // A relaxed cross-role read of a cursor drops the acquire edge pairing
  // with the owner's release.
  FLIPC_ROLE_ENGINE unsigned long SloppyPoll() {
    return cursors.release_count.ReadRelaxed();  // AUDIT-EXPECT: must use Read() (acquire)
  }
};

struct Raw {
  std::atomic<unsigned long> word;

  // Defaulted order means an accidental (and expensive) seq_cst fence.
  void DefaultOrder() {
    word.store(1);  // AUDIT-EXPECT: defaulted memory_order
  }

  // Explicit seq_cst is forbidden everywhere.
  void StrayseqCst() {
    word.store(1, std::memory_order_seq_cst);  // AUDIT-EXPECT: memory_order_seq_cst is forbidden
  }
};
