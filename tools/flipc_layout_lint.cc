// Communication-buffer layout lint.
//
// Walks the ownership tables in src/shm/ownership_layout.h (the same tables
// the compile-time static_asserts and the ownership race detector use),
// prints the per-cache-line writer map for every shared structure, and
// fails (exit 1) if:
//
//   * any cache line holds words with two distinct declared writers
//     (the paper's false-sharing rule — worth ~2x latency on the Paragon);
//   * any shared field is misaligned or straddles a cache line;
//   * any CommBufferLayout section offset is not cache-line aligned, for a
//     sweep of representative configurations.
//
// Registered as a ctest (tools/CMakeLists.txt), so `ctest` is red whenever
// the layout audit is. The static_asserts catch violations at compile time;
// this binary exists so the audit is also runnable, greppable and readable.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/shm/ownership_layout.h"

namespace flipc::shm {
namespace {

struct TableRef {
  const char* struct_name;
  std::size_t struct_size;
  const FieldOwnership* fields;
  std::size_t count;
};

int failures = 0;

void Fail(const char* fmt, const char* a, const char* b) {
  std::fprintf(stderr, "layout lint FAIL: ");
  std::fprintf(stderr, fmt, a, b);
  std::fprintf(stderr, "\n");
  ++failures;
}

// Runtime re-check of the constexpr predicates, field pair by field pair so
// the offending fields can be named.
void LintTable(const TableRef& table) {
  std::printf("%s (%zu bytes, %zu cache line%s)\n", table.struct_name, table.struct_size,
              table.struct_size / kCacheLineSize,
              table.struct_size / kCacheLineSize == 1 ? "" : "s");

  const std::size_t lines = (table.struct_size + kCacheLineSize - 1) / kCacheLineSize;
  for (std::size_t line = 0; line < lines; ++line) {
    const waitfree::Writer* line_writer = nullptr;
    std::printf("  line %zu:", line);
    bool mixed = false;
    bool any = false;
    for (std::size_t i = 0; i < table.count; ++i) {
      const FieldOwnership& f = table.fields[i];
      const std::size_t first = f.offset / kCacheLineSize;
      const std::size_t last = (f.offset + f.size - 1) / kCacheLineSize;
      if (line < first || line > last) {
        continue;
      }
      std::printf(" %s", f.name);
      any = true;
      if (line_writer == nullptr) {
        line_writer = &f.writer;
      } else if (*line_writer != f.writer) {
        mixed = true;
      }
    }
    if (!any) {
      std::printf(" (padding)");
    } else {
      std::printf("  [%s%s]", mixed ? "MIXED! " : "",
                  line_writer != nullptr ? waitfree::WriterName(*line_writer) : "?");
    }
    std::printf("\n");
    if (mixed) {
      Fail("%s cache line holds words with two distinct writers", table.struct_name, "");
    }
  }

  for (std::size_t i = 0; i < table.count; ++i) {
    const FieldOwnership& f = table.fields[i];
    const std::size_t natural = f.size >= kCacheLineSize ? kCacheLineSize : f.size;
    if (natural != 0 && f.offset % natural != 0) {
      Fail("%s: field %s is not naturally aligned", table.struct_name, f.name);
    }
    if (f.offset / kCacheLineSize != (f.offset + f.size - 1) / kCacheLineSize) {
      Fail("%s: field %s straddles a cache line", table.struct_name, f.name);
    }
  }
}

void LintRegionLayouts() {
  // Representative configurations: paper defaults, minimum sizes, large
  // buffer pools, odd endpoint counts.
  const CommBufferConfig configs[] = {
      {},                                     // defaults
      {64, 1, 1, 0, 0},                       // minimum everything
      {128, 1024, 64, 0, 0},                  // paper-ish default
      {512, 4096, 257, 0, 0},                 // odd endpoint count
      {96, 3, 5, 7, 0},                       // deliberately awkward sizes
      {128, 1024, 64, 0, 2},                  // smallest explicit doorbell ring
      {128, 1024, 64, 0, 4096},               // largest default-clamp ring
  };
  for (const CommBufferConfig& config : configs) {
    const Result<CommBufferLayout> layout = CommBufferLayout::For(config);
    if (!layout.ok()) {
      Fail("CommBufferLayout::For rejected a lint configuration%s%s", "", "");
      continue;
    }
    const std::size_t offsets[] = {
        layout->endpoint_table_offset, layout->telemetry_offset,
        layout->cell_arena_offset, layout->freelist_offset,
        layout->doorbell_offset, layout->buffers_offset, layout->total_size};
    const char* names[] = {"endpoint_table_offset", "telemetry_offset",
                           "cell_arena_offset", "freelist_offset",
                           "doorbell_offset", "buffers_offset", "total_size"};
    for (std::size_t i = 0; i < 7; ++i) {
      if (!IsAligned(offsets[i], kCacheLineSize)) {
        Fail("CommBufferLayout.%s is not cache-line aligned%s", names[i], "");
      }
    }
  }
  std::printf("CommBufferLayout section offsets: %zu configurations checked\n",
              sizeof(configs) / sizeof(configs[0]));
}

int Run() {
  const TableRef tables[] = {
      {"EndpointRecord", sizeof(EndpointRecord), kEndpointRecordOwnership,
       sizeof(kEndpointRecordOwnership) / sizeof(FieldOwnership)},
      {"TelemetryBlock", sizeof(TelemetryBlock), kTelemetryBlockOwnership,
       sizeof(kTelemetryBlockOwnership) / sizeof(FieldOwnership)},
      {"QueueCursors", sizeof(waitfree::QueueCursors), kQueueCursorsOwnership,
       sizeof(kQueueCursorsOwnership) / sizeof(FieldOwnership)},
      {"PaddedDropCounterParts", sizeof(waitfree::PaddedDropCounterParts),
       kPaddedDropCounterOwnership,
       sizeof(kPaddedDropCounterOwnership) / sizeof(FieldOwnership)},
      {"CommBufferHeader", sizeof(CommBufferHeader), kCommBufferHeaderOwnership,
       sizeof(kCommBufferHeaderOwnership) / sizeof(FieldOwnership)},
      {"DoorbellCursors", sizeof(waitfree::DoorbellCursors), kDoorbellCursorsOwnership,
       sizeof(kDoorbellCursorsOwnership) / sizeof(FieldOwnership)},
      {"SpscCursors", sizeof(waitfree::SpscCursors), kSpscCursorsOwnership,
       sizeof(kSpscCursorsOwnership) / sizeof(FieldOwnership)},
  };
  for (const TableRef& table : tables) {
    LintTable(table);
  }
  LintRegionLayouts();

  if (failures != 0) {
    std::fprintf(stderr, "layout lint: %d failure%s\n", failures,
                 failures == 1 ? "" : "s");
    return 1;
  }
  std::printf("layout lint: OK — no cache line mixes application- and engine-written "
              "words\n");
  return 0;
}

}  // namespace
}  // namespace flipc::shm

int main() { return flipc::shm::Run(); }
