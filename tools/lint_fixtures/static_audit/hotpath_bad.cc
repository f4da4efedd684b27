// Rule 3 (hot-path purity) — seeded violations the auditor must reject.
#include <cstdlib>

#include "audit_stubs.h"

int Allocates(int x) {
  FLIPC_HOT_PATH("fixture-alloc");
  if (x == 1) {
    int* scratch = new int(3);  // AUDIT-EXPECT: dynamic allocation (new)
    delete scratch;             // AUDIT-EXPECT: dynamic deallocation (delete)
  }
  return x;
}

// The C allocator: the runtime guard hooks only operator new, and the nm
// lint lets `nolock` TUs allocate, so this scan is what catches it there.
int CAllocates(int x) {
  FLIPC_HOT_PATH("fixture-c-alloc");
  if (x == 5) {
    void* scratch = std::malloc(16);  // AUDIT-EXPECT: C allocator call malloc()
    std::free(scratch);               // AUDIT-EXPECT: C allocator call free()
  }
  return x;
}

int Blocks(int x) {
  FLIPC_HOT_PATH("fixture-block");
  if (x == 2) {
    std::mutex m;  // AUDIT-EXPECT: std::mutex in a hot-path scope
    (void)m;
  }
  if (x == 3) {
    usleep(1);  // AUDIT-EXPECT: blocking call usleep()
  }
  return x;
}

int Unwinds(int x) {
  FLIPC_HOT_PATH("fixture-throw");
  try {  // AUDIT-EXPECT: try-block
    if (x == 4) {
      throw x;  // AUDIT-EXPECT: exception throw
    }
  } catch (...) {  // AUDIT-EXPECT: catch handler
    return -1;
  }
  return x;
}
