#include "src/base/locks.h"

#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace flipc {
namespace {

long Membarrier(int cmd) { return syscall(__NR_membarrier, cmd, 0, 0); }

[[noreturn]] void MembarrierFailed(const char* what) {
  std::fprintf(stderr,
               "FLIPC: %s failed (%s). The engine runner's idle park needs "
               "membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED): Linux >= 4.14, "
               "with the membarrier syscall permitted.\n",
               what, std::strerror(errno));
  std::abort();
}

}  // namespace

void ParkWakeFlag::RegisterProcess() {
  static const bool registered = [] {
    if (Membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) != 0) {
      MembarrierFailed("membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED)");
    }
    return true;
  }();
  (void)registered;
}

void ParkWakeFlag::ProcessWideBarrier() {
  RegisterProcess();
  if (Membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED) != 0) {
    MembarrierFailed("membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)");
  }
}

}  // namespace flipc
