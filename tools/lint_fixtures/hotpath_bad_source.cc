// Seeded-violation fixture for the flipc_hotpath_lint SELFTEST source pass.
// Never compiled; the lint reads it as text. It violates both source rules:
// raw std::atomic usage outside src/waitfree//src/base/locks.h, and a
// memory_order_seq_cst access, which no source file may contain.
#include <atomic>

namespace flipc_lint_fixture {

std::atomic<int> g_naked_atomic{0};

int Load() { return g_naked_atomic.load(std::memory_order_seq_cst); }

}  // namespace flipc_lint_fixture
