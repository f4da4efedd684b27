// Exports the ownership tables + memory-order policy as JSON for the static
// protocol auditor (tools/flipc_static_audit).
//
// src/shm/ownership_layout.h is the single source of truth for who writes
// each shared comm-buffer word and how its atomic accesses must be ordered.
// The auditor is Python; rather than let a hand-maintained copy drift, this
// tiny generator walks the same constexpr tables the compile-time lint
// walks and prints them as JSON. The committed copy (tools/
// ownership_policy.json) is compared against fresh output by the
// flipc_ownership_policy_drift ctest, so editing the tables without
// re-exporting breaks the build — in both directions.
//
// The output is deterministic (fixed field order, no timestamps, LF line
// ends) so `cmake -E compare_files` is a valid drift check.
#include <cstdio>
#include <cstring>
#include <string>

#include "src/shm/ownership_layout.h"

namespace {

using flipc::shm::ArenaOwnership;
using flipc::shm::AuditAlias;
using flipc::shm::FieldOrderKind;
using flipc::shm::FieldOrderPolicy;
using flipc::shm::FieldOwnership;
using flipc::waitfree::Writer;

const char* PolicyWriterName(Writer w) {
  return w == Writer::kApplication ? "app" : "engine";
}

const char* KindName(FieldOrderKind k) {
  switch (k) {
    case FieldOrderKind::kCursor:
      return "cursor";
    case FieldOrderKind::kFlag:
      return "flag";
    case FieldOrderKind::kCounter:
      return "counter";
    case FieldOrderKind::kConfig:
      return "config";
    case FieldOrderKind::kConfigPublish:
      return "config_publish";
    case FieldOrderKind::kDataCell:
      return "data_cell";
    case FieldOrderKind::kRmw:
      return "rmw";
    case FieldOrderKind::kPlain:
      return "plain";
  }
  return "?";
}

// Looks a field's ordering kind up in kFieldOrderKinds; nullptr when the
// kind table has no row for it (a drift the generator turns into a failure).
const FieldOrderPolicy* FindKind(const char* name) {
  for (const FieldOrderPolicy& p : flipc::shm::kFieldOrderKinds) {
    if (std::strcmp(p.name, name) == 0) {
      return &p;
    }
  }
  return nullptr;
}

struct Emitter {
  std::string out;
  bool first_in_list = true;

  void ListStart(const char* key) {
    out += "  \"";
    out += key;
    out += "\": [\n";
    first_in_list = true;
  }
  void ListEnd() { out += "\n  ]"; }
  void Row(const std::string& row) {
    if (!first_in_list) {
      out += ",\n";
    }
    first_in_list = false;
    out += "    " + row;
  }
};

std::string FieldRow(const FieldOwnership& f, FieldOrderKind kind) {
  char row[512];
  std::snprintf(row, sizeof(row),
                "{\"name\": \"%s\", \"writer\": \"%s\", \"checked_cell\": %s, "
                "\"quiescent\": %s, \"kind\": \"%s\", \"size\": %zu}",
                f.name, PolicyWriterName(f.writer), f.checked_cell ? "true" : "false",
                f.quiescent ? "true" : "false", KindName(kind), f.size);
  return row;
}

bool missing_kind = false;

template <std::size_t N>
void EmitTable(Emitter& e, const FieldOwnership (&fields)[N]) {
  for (const FieldOwnership& f : fields) {
    const FieldOrderPolicy* kind = FindKind(f.name);
    if (kind == nullptr) {
      std::fprintf(stderr, "flipc_ownership_export: no FieldOrderKind for %s\n", f.name);
      missing_kind = true;
      continue;
    }
    e.Row(FieldRow(f, kind->kind));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Emitter e;
  e.out += "{\n";
  e.out += "  \"version\": 1,\n";

  char line[256];
  std::snprintf(line, sizeof(line), "  \"cache_line_size\": %zu,\n",
                static_cast<std::size_t>(flipc::kCacheLineSize));
  e.out += line;

  e.ListStart("fields");
  EmitTable(e, flipc::shm::kEndpointRecordOwnership);
  EmitTable(e, flipc::shm::kTelemetryBlockOwnership);
  EmitTable(e, flipc::shm::kQueueCursorsOwnership);
  EmitTable(e, flipc::shm::kDoorbellCursorsOwnership);
  EmitTable(e, flipc::shm::kPaddedDropCounterOwnership);
  EmitTable(e, flipc::shm::kSpscCursorsOwnership);
  EmitTable(e, flipc::shm::kCommBufferHeaderOwnership);
  // Arena cell arrays: no fixed offset, so they live in their own table;
  // checked cells (DeclareOwner'd per region by CommBuffer), never
  // quiescent-written.
  for (const ArenaOwnership& a : flipc::shm::kArenaCellOwnership) {
    const FieldOrderPolicy* kind = FindKind(a.name);
    if (kind == nullptr) {
      std::fprintf(stderr, "flipc_ownership_export: no FieldOrderKind for %s\n", a.name);
      missing_kind = true;
      continue;
    }
    char row[512];
    std::snprintf(row, sizeof(row),
                  "{\"name\": \"%s\", \"writer\": \"%s\", \"checked_cell\": true, "
                  "\"quiescent\": false, \"kind\": \"%s\", \"size\": 0}",
                  a.name, PolicyWriterName(a.writer), KindName(kind->kind));
    e.Row(row);
  }
  e.ListEnd();
  e.out += ",\n";

  e.ListStart("aliases");
  for (const AuditAlias& a : flipc::shm::kAuditAliases) {
    char row[512];
    std::snprintf(row, sizeof(row),
                  "{\"class\": \"%s\", \"member\": \"%s\", \"field\": \"%s\"}", a.klass,
                  a.member, a.field);
    e.Row(row);
  }
  e.ListEnd();
  e.out += ",\n";

  e.ListStart("alternating_members");
  for (const char* m : flipc::shm::kAlternatingWriterMembers) {
    e.Row(std::string("\"") + m + "\"");
  }
  e.ListEnd();
  e.out += "\n}\n";

  // Reverse completeness: a kind row whose field vanished from the
  // ownership tables is equally a drift.
  for (const FieldOrderPolicy& p : flipc::shm::kFieldOrderKinds) {
    bool found = false;
    for (const ArenaOwnership& a : flipc::shm::kArenaCellOwnership) {
      found = found || std::strcmp(a.name, p.name) == 0;
    }
    auto scan = [&found, &p](const FieldOwnership* fields, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        if (std::strcmp(fields[i].name, p.name) == 0) {
          found = true;
        }
      }
    };
    scan(flipc::shm::kEndpointRecordOwnership,
         std::size(flipc::shm::kEndpointRecordOwnership));
    scan(flipc::shm::kTelemetryBlockOwnership,
         std::size(flipc::shm::kTelemetryBlockOwnership));
    scan(flipc::shm::kQueueCursorsOwnership,
         std::size(flipc::shm::kQueueCursorsOwnership));
    scan(flipc::shm::kDoorbellCursorsOwnership,
         std::size(flipc::shm::kDoorbellCursorsOwnership));
    scan(flipc::shm::kPaddedDropCounterOwnership,
         std::size(flipc::shm::kPaddedDropCounterOwnership));
    scan(flipc::shm::kSpscCursorsOwnership, std::size(flipc::shm::kSpscCursorsOwnership));
    scan(flipc::shm::kCommBufferHeaderOwnership,
         std::size(flipc::shm::kCommBufferHeaderOwnership));
    if (!found) {
      std::fprintf(stderr,
                   "flipc_ownership_export: kind row %s matches no ownership field\n",
                   p.name);
      missing_kind = true;
    }
  }
  if (missing_kind) {
    return 1;
  }

  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "wb");
    if (f == nullptr) {
      std::perror("flipc_ownership_export: fopen");
      return 1;
    }
    std::fwrite(e.out.data(), 1, e.out.size(), f);
    std::fclose(f);
  } else {
    std::fwrite(e.out.data(), 1, e.out.size(), stdout);
  }
  return 0;
}
