// Class heads that carry attribute macros — the shape of src/base/locks.h's
// `class FLIPC_CAPABILITY("TasLock") TasLock` and
// src/base/thread_annotations.h's `class FLIPC_SCOPED_CAPABILITY ScopedLock`. The frontend must skip the
// macro and name the methods after the real class: the closure findings
// below name 'flipc::SpinLock::lock' and 'flipc::SpinGuard::Hold', not
// 'flipc::FLIPC_CAPABILITY::lock'.
#include "audit_stubs.h"

#define FLIPC_CAPABILITY(name)
#define FLIPC_SCOPED_CAPABILITY

namespace flipc {

class FLIPC_CAPABILITY("SpinLock") SpinLock {
 public:
  void lock() {
    usleep(1);  // AUDIT-EXPECT: hot-closure: blocking call usleep() in 'flipc::SpinLock::lock'
  }
};

class FLIPC_SCOPED_CAPABILITY SpinGuard {
 public:
  static void Hold() {
    std::mutex backup;  // AUDIT-EXPECT: hot-closure: std::mutex in 'flipc::SpinGuard::Hold'
    (void)backup;
  }
};

int Transmit(SpinLock& lock, int x) {
  FLIPC_HOT_PATH("fixture-class-macro");
  lock.lock();
  SpinGuard::Hold();
  return x;
}

}  // namespace flipc
