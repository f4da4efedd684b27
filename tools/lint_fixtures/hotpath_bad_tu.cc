// Seeded-violation fixture for the flipc_hotpath_lint SELFTEST. This TU is
// compiled (into an object the lint must flag) but never linked into any
// product binary. It commits every symbol-level sin the lint denies:
// heap allocation (operator new and the C allocator, which the runtime
// guard cannot see), std::mutex (pthread_mutex_*), a condition variable and
// a blocking libc call. If the lint ever stops flagging this object, the
// flipc_hotpath_lint_selftest ctest goes red.
#include <unistd.h>

#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace flipc_lint_fixture {

std::mutex g_mutex;
std::condition_variable g_cv;
void* g_raw = nullptr;

int HotPathSinner(int n) {
  std::lock_guard<std::mutex> guard(g_mutex);  // pthread_mutex_lock
  std::vector<int> heap(static_cast<std::size_t>(n), 7);  // operator new
  g_raw = std::malloc(static_cast<std::size_t>(n));       // C allocator
  usleep(1);                                              // blocking libc
  g_cv.notify_one();                                      // pthread_cond_*
  return heap.empty() ? 0 : heap.front();
}

}  // namespace flipc_lint_fixture
