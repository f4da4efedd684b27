// Clang Thread Safety Analysis annotations (-Wthread-safety).
//
// FLIPC's hot path is wait-free and has nothing to annotate — the static
// protocol auditor (tools/flipc_static_audit) proves its single-writer and
// memory-order discipline instead. These annotations cover the LOCKED
// subsystems around it: the library-side endpoint bookkeeping, the
// simulated kernel objects (simos) and the simulated fabric. There,
// classic lock discipline applies and clang can prove it at compile time:
// every GUARDED_BY member is touched only with its mutex held,
// lock-requiring helpers are only called under the lock.
//
// The macros expand to nothing outside clang (GCC has no thread-safety
// attributes), so annotated code builds unchanged everywhere; the CI clang
// leg compiles with -Wthread-safety and surfaces violations.
//
// std::lock_guard/std::unique_lock in libstdc++ carry no annotations, so
// the analysis cannot see through them; annotated code uses the
// flipc::ScopedLock below (an annotated RAII guard with absl-style early
// Release()). Condition-variable waits still need std::unique_lock —
// those few functions opt out with FLIPC_NO_THREAD_SAFETY_ANALYSIS and
// say why.
#ifndef SRC_BASE_THREAD_ANNOTATIONS_H_
#define SRC_BASE_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define FLIPC_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef FLIPC_THREAD_ANNOTATION
#define FLIPC_THREAD_ANNOTATION(x)
#endif

// On a class: instances are lockable capabilities.
#define FLIPC_CAPABILITY(name) FLIPC_THREAD_ANNOTATION(capability(name))
// On a class: RAII object acquiring in its constructor, releasing in its
// destructor.
#define FLIPC_SCOPED_CAPABILITY FLIPC_THREAD_ANNOTATION(scoped_lockable)
// On a data member: may only be accessed with `mu` held.
#define FLIPC_GUARDED_BY(mu) FLIPC_THREAD_ANNOTATION(guarded_by(mu))
// On a pointer member: the pointee may only be accessed with `mu` held.
#define FLIPC_PT_GUARDED_BY(mu) FLIPC_THREAD_ANNOTATION(pt_guarded_by(mu))
// On a function: the caller must hold the listed capabilities.
#define FLIPC_REQUIRES(...) \
  FLIPC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
// On a function: acquires/releases the listed capabilities.
#define FLIPC_ACQUIRE(...) \
  FLIPC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define FLIPC_RELEASE(...) \
  FLIPC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
// On a function: acquires the capability iff it returns `result`.
#define FLIPC_TRY_ACQUIRE(result, ...) \
  FLIPC_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))
// On a function: the caller must NOT hold the listed capabilities.
#define FLIPC_EXCLUDES(...) FLIPC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// On a function: opt out of the analysis (document why at each use).
#define FLIPC_NO_THREAD_SAFETY_ANALYSIS \
  FLIPC_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace flipc {

// Annotated RAII lock guard: what std::lock_guard would be if libstdc++
// carried thread-safety attributes. Works with any Lockable (std::mutex,
// TasLock). Release() unlocks early, like absl::ReleasableMutexLock.
template <typename Mutex>
class FLIPC_SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(Mutex& mutex) FLIPC_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }

  ~ScopedLock() FLIPC_RELEASE() {
    if (!released_) {
      mutex_.unlock();
    }
  }

  // Unlocks before scope exit (for work that must happen outside the
  // critical section). No re-acquisition: the guard is spent.
  void Release() FLIPC_RELEASE() {
    released_ = true;
    mutex_.unlock();
  }

  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  Mutex& mutex_;
  bool released_ = false;
};

}  // namespace flipc

#endif  // SRC_BASE_THREAD_ANNOTATIONS_H_
