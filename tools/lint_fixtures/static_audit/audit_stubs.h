// Self-contained stand-ins for the FLIPC primitives the static-audit
// fixtures exercise. The auditor's token frontend keys on the macro and
// method NAMES; the real declarations here keep the fixtures compilable C++
// without pulling in the repo's src/ tree, so a fixture's findings come from
// the fixture alone.
#ifndef TOOLS_LINT_FIXTURES_STATIC_AUDIT_AUDIT_STUBS_H_
#define TOOLS_LINT_FIXTURES_STATIC_AUDIT_AUDIT_STUBS_H_

#include <atomic>
#include <mutex>

#define FLIPC_ROLE_APP
#define FLIPC_ROLE_ENGINE
#define FLIPC_ROLE_QUIESCENT

#define FLIPC_HOT_PATH(label) ((void)0)
#define FLIPC_HOT_PATH_IF(armed, label) ((void)0)
#define FLIPC_HOT_PATH_EXEMPT(reason) ((void)0)
#define FLIPC_BOUNDED_BY(expr) ((void)sizeof((expr)))
#define FLIPC_UNBOUNDED_WAIT(why) ((void)sizeof((why)))

extern "C" int usleep(unsigned int usec);

namespace flipc {

// Mirrors src/waitfree/single_writer.h's interface (names are what the
// auditor keys on; the implementation only has to compile).
template <typename T>
class SingleWriterCell {
 public:
  T Read() const { return rep_.load(std::memory_order_acquire); }
  T ReadRelaxed() const { return rep_.load(std::memory_order_relaxed); }
  void Publish(T value) { rep_.store(value, std::memory_order_release); }
  void StoreRelaxed(T value) { rep_.store(value, std::memory_order_relaxed); }

 private:
  std::atomic<T> rep_{};
};

}  // namespace flipc

// Shared-memory layouts the mini policy (mini_policy.json) governs.
struct Cursors {
  flipc::SingleWriterCell<unsigned long> release_count;  // app-owned cursor
  flipc::SingleWriterCell<unsigned long> process_count;  // engine-owned cursor
  flipc::SingleWriterCell<unsigned long> head_hint;      // engine-owned hint
};

struct Stats {
  flipc::SingleWriterCell<unsigned long> total;  // engine-owned counter
};

struct Cfg {
  flipc::SingleWriterCell<unsigned long> capacity;  // quiescent-only config
};

struct Hdr {
  unsigned long magic;      // plain, quiescent-only
  unsigned long free_head;  // plain, app-owned
};

#endif  // TOOLS_LINT_FIXTURES_STATIC_AUDIT_AUDIT_STUBS_H_
