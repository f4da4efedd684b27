// Hot-path purity lint: the static half of the enforcement subsystem whose
// runtime half is src/base/hotpath.h (see docs/MEMORY_MODEL.md §4).
//
// Two passes:
//
//  1. Symbol pass. For each manifest entry, runs `nm -P` over the compiled
//     hot-path objects (static-library archives, optionally filtered to one
//     member TU) and fails on undefined references to:
//       * allocation entry points (operator new/delete, malloc family) —
//         unless the entry's class is `nolock`, which permits allocation
//         (cold-path construction, the DES event closures) but still denies
//         locks and blocking calls;
//       * pthread locking (pthread_mutex_*, rwlock, spinlock, condvars,
//         semaphores) — what std::mutex and friends lower to;
//       * blocking libc entry points (nanosleep, poll, select, epoll, ...).
//     The runtime guards catch what symbols cannot (an allocation on a cold
//     branch of a hot TU is fine; one inside an armed scope is not) and
//     vice versa (a pthread_mutex reference is a landmine even if today's
//     tests never walk the branch). One C++ artifact is waived: a TU that
//     instantiates a virtual-destructor class emits a weak *deleting*
//     destructor whose body calls operator delete; that import is accepted
//     iff the member defines such a destructor and imports no allocator.
//
//  2. Source pass. Walks src/**/*.{h,cc} and enforces the atomics
//     discipline: raw `std::atomic` / `memory_order_` tokens are forbidden
//     outside src/waitfree/ and src/base/locks.h except for files in the
//     curated allowlist (tools/hotpath_lint_allowlist.txt, each with a
//     reason), and `memory_order_seq_cst` is forbidden everywhere,
//     locks.h included: the park/wake handshake, the one store->load
//     ordering the protocol needs, gets it from the parker's membarrier, so
//     a new seq_cst access anywhere must be argued past this lint.
//
// Modes:
//   flipc_hotpath_lint --manifest M --source-root DIR --allowlist F
//       run both passes (the flipc_hotpath_lint ctest).
//   flipc_hotpath_lint --selftest BAD_OBJECT BAD_SOURCE
//       verify the lint still detects violations: the seeded-bad object
//       must fail the symbol pass and the seeded-bad source file must fail
//       the source pass (the flipc_hotpath_lint_selftest ctest).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

int failures = 0;

void Fail(const std::string& message) {
  std::fprintf(stderr, "hotpath lint FAIL: %s\n", message.c_str());
  ++failures;
}

// ---- Symbol pass ------------------------------------------------------------

enum class PurityClass { kPure, kNoLock };

struct DeniedSymbol {
  const char* prefix;   // match by prefix (mangled names carry suffixes)
  const char* why;
};

// Allocation entry points: operator new/new[]/delete/delete[] mangle to
// _Znw/_Zna/_Zdl/_Zda prefixes; the C allocator family is matched by name.
const DeniedSymbol kAllocSymbols[] = {
    {"_Znw", "operator new"},
    {"_Zna", "operator new[]"},
    {"_Zdl", "operator delete"},
    {"_Zda", "operator delete[]"},
    {"malloc", "malloc"},
    {"calloc", "calloc"},
    {"realloc", "realloc"},
    {"aligned_alloc", "aligned_alloc"},
    {"posix_memalign", "posix_memalign"},
    {"memalign", "memalign"},
    {"valloc", "valloc"},
};

// What std::mutex / std::shared_mutex / std::condition_variable lower to.
const DeniedSymbol kLockSymbols[] = {
    {"pthread_mutex_", "pthread mutex"},
    {"pthread_rwlock_", "pthread rwlock"},
    {"pthread_spin_", "pthread spinlock"},
    {"pthread_cond_", "pthread condvar"},
    {"sem_wait", "POSIX semaphore wait"},
    {"sem_timedwait", "POSIX semaphore wait"},
    {"sem_post", "POSIX semaphore post"},
};

const DeniedSymbol kBlockingSymbols[] = {
    {"nanosleep", "nanosleep"},
    {"clock_nanosleep", "clock_nanosleep"},
    {"usleep", "usleep"},
    {"sleep", "sleep"},
    {"poll", "poll"},
    {"ppoll", "ppoll"},
    {"select", "select"},
    {"pselect", "pselect"},
    {"epoll_wait", "epoll_wait"},
    {"epoll_pwait", "epoll_pwait"},
    {"pause", "pause"},
    {"sigwait", "sigwait"},
};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Mangled C-library references sometimes carry a glibc version suffix
// (e.g. "pthread_mutex_lock@GLIBC_2.x") or leading underscores from
// platform decoration; strip the version, tolerate one leading underscore.
std::string NormalizeSymbol(std::string name) {
  const std::size_t at = name.find('@');
  if (at != std::string::npos) {
    name.resize(at);
  }
  if (!name.empty() && name[0] == '_' && !StartsWith(name, "_Z")) {
    // "_IO_printf"-style decorations; "__libc_malloc" etc.
    std::size_t i = 0;
    while (i < name.size() && name[i] == '_') {
      ++i;
    }
    // Keep the C++-mangled names untouched; strip only C decorations.
    if (name.compare(0, 2, "_Z") != 0) {
      name = name.substr(i);
    }
  }
  return name;
}

const DeniedSymbol* MatchDenied(const std::string& symbol, PurityClass cls) {
  const std::string name = NormalizeSymbol(symbol);
  if (cls == PurityClass::kPure) {
    for (const DeniedSymbol& d : kAllocSymbols) {
      if (StartsWith(name, d.prefix) || StartsWith(symbol, d.prefix)) {
        return &d;
      }
    }
  }
  for (const DeniedSymbol& d : kLockSymbols) {
    if (StartsWith(name, d.prefix) || StartsWith(symbol, d.prefix)) {
      return &d;
    }
  }
  for (const DeniedSymbol& d : kBlockingSymbols) {
    // Blocking libc names are exact calls, not families: match whole name
    // so e.g. "sleep" does not swallow an unrelated "sleepless" symbol.
    if (name == d.prefix || symbol == d.prefix) {
      return &d;
    }
  }
  return nullptr;
}

bool IsDeleteFamily(const std::string& symbol) {
  return StartsWith(symbol, "_Zdl") || StartsWith(symbol, "_Zda");
}

// Per-member evidence needed to resolve the one known vtable artifact: a
// TU that instantiates a class with a virtual destructor emits a weak
// *deleting* destructor (mangled ...D0Ev) which calls operator delete even
// though the TU itself never deletes anything. Such a reference is waived
// iff the member defines a deleting destructor AND imports no allocation
// entry point (you cannot reach D0 on objects the TU never news — and a
// genuine hot-path `delete` of an externally allocated object is still
// caught by the runtime guards, which replace operator delete itself).
struct MemberState {
  std::string name;
  std::vector<std::string> pending_deletes;  // undefined _Zdl/_Zda refs
  bool defines_deleting_dtor = false;
  bool has_alloc_ref = false;  // undefined new/malloc-family reference
};

int FlushMember(MemberState& member, bool quiet) {
  int violations = 0;
  if (!member.pending_deletes.empty()) {
    if (member.defines_deleting_dtor && !member.has_alloc_ref) {
      if (!quiet) {
        std::printf(
            "  note: %s: waived %zu operator delete reference%s (weak "
            "deleting-destructor vtable artifact; no allocation imports)\n",
            member.name.c_str(), member.pending_deletes.size(),
            member.pending_deletes.size() == 1 ? "" : "s");
      }
    } else {
      for (const std::string& symbol : member.pending_deletes) {
        ++violations;
        if (!quiet) {
          Fail(member.name + ": undefined reference to " + symbol +
               " (operator delete) — forbidden on the hot path");
        }
      }
    }
  }
  member.pending_deletes.clear();
  member.defines_deleting_dtor = false;
  member.has_alloc_ref = false;
  return violations;
}

// Runs `nm -P` on `path` and reports denied undefined references. When
// `member_filter` is non-empty, only archive members whose name contains it
// are inspected (e.g. "endpoint.cc" selects endpoint.cc.o out of
// libflipc_core.a). Returns the number of violations found.
int CheckObjectSymbols(const std::string& path, PurityClass cls,
                       const std::string& member_filter, bool quiet) {
  const std::string command = "nm -P '" + path + "' 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    Fail("could not run nm on " + path);
    return 0;
  }

  int violations = 0;
  bool member_active = member_filter.empty();
  MemberState member;
  member.name = path;
  char line[1024];
  bool saw_any_line = false;
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    saw_any_line = true;
    std::string text(line);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    if (text.empty()) {
      continue;
    }
    // Archive member headers: "libx.a[member.o]:" (GNU nm -P).
    if (text.back() == ':') {
      violations += FlushMember(member, quiet);
      member.name = text.substr(0, text.size() - 1);
      member_active =
          member_filter.empty() || member.name.find(member_filter) != std::string::npos;
      continue;
    }
    if (!member_active) {
      continue;
    }
    std::istringstream fields(text);
    std::string symbol;
    std::string type;
    if (!(fields >> symbol >> type)) {
      continue;
    }
    // Undefined (U) and weak-undefined (w/v) references are what the TU
    // imports; anything else is a definition the TU provides.
    const bool is_undefined = type == "U" || type == "w" || type == "v";
    if (!is_undefined) {
      if (symbol.find("D0Ev") != std::string::npos) {
        member.defines_deleting_dtor = true;
      }
      continue;
    }
    const DeniedSymbol* denied = MatchDenied(symbol, cls);
    if (denied == nullptr) {
      continue;
    }
    if (cls == PurityClass::kPure && IsDeleteFamily(symbol)) {
      // Defer: waivable only if the member turns out to define a deleting
      // destructor and import no allocator (resolved at member flush).
      member.pending_deletes.push_back(symbol);
      continue;
    }
    const bool is_alloc =
        denied >= kAllocSymbols &&
        denied < kAllocSymbols + sizeof(kAllocSymbols) / sizeof(kAllocSymbols[0]);
    if (is_alloc) {
      member.has_alloc_ref = true;
    }
    ++violations;
    if (!quiet) {
      Fail(member.name + ": undefined reference to " + symbol + " (" + denied->why +
           ") — forbidden on the hot path");
    }
  }
  violations += FlushMember(member, quiet);
  pclose(pipe);
  if (!saw_any_line) {
    Fail("nm produced no output for " + path + " (missing file?)");
  }
  return violations;
}

// Manifest lines (written by tools/CMakeLists.txt with generator
// expressions resolved):
//   object <pure|nolock> <path> [member-filter]
//   skip <reason...>          — symbol pass disabled for this build config
int RunSymbolPass(const std::string& manifest_path) {
  std::ifstream manifest(manifest_path);
  if (!manifest) {
    Fail("cannot open manifest " + manifest_path);
    return 0;
  }
  int entries = 0;
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "skip") {
      std::string reason;
      std::getline(fields, reason);
      std::printf("hotpath lint: symbol pass SKIPPED —%s\n", reason.c_str());
      std::printf("  (instrumented builds add allocator/pthread references; the plain\n"
                  "   build's ctest run performs the symbol audit)\n");
      return 0;
    }
    if (kind != "object") {
      Fail("manifest: unknown entry kind '" + kind + "'");
      continue;
    }
    std::string cls_name;
    std::string path;
    std::string member_filter;
    fields >> cls_name >> path;
    fields >> member_filter;  // optional
    const PurityClass cls =
        cls_name == "nolock" ? PurityClass::kNoLock : PurityClass::kPure;
    if (cls_name != "nolock" && cls_name != "pure") {
      Fail("manifest: unknown purity class '" + cls_name + "'");
      continue;
    }
    ++entries;
    const int before = failures;
    CheckObjectSymbols(path, cls, member_filter, /*quiet=*/false);
    std::printf("  symbol pass [%s] %s%s%s: %s\n", cls_name.c_str(), path.c_str(),
                member_filter.empty() ? "" : " member ",
                member_filter.c_str(), failures == before ? "clean" : "VIOLATIONS");
  }
  std::printf("hotpath lint: symbol pass inspected %d object set%s\n", entries,
              entries == 1 ? "" : "s");
  return entries;
}

// ---- Source pass ------------------------------------------------------------

bool PathContains(const std::string& path, const char* fragment) {
  return path.find(fragment) != std::string::npos;
}

std::vector<std::string> LoadAllowlist(const std::string& allowlist_path) {
  std::vector<std::string> allowed;
  std::ifstream file(allowlist_path);
  if (!file) {
    Fail("cannot open allowlist " + allowlist_path);
    return allowed;
  }
  std::string line;
  while (std::getline(file, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t')) {
      line.pop_back();
    }
    if (!line.empty()) {
      allowed.push_back(line);
    }
  }
  return allowed;
}

bool IsAllowlisted(const std::string& rel_path, const std::vector<std::string>& allowed) {
  for (const std::string& entry : allowed) {
    if (rel_path == entry) {
      return true;
    }
  }
  return false;
}

// True when the file has at least one line the allowlist could be excusing.
// Matches CheckSourceFile's own line-level detection, so an entry is "used"
// exactly when removing it would make the source pass fail.
bool FileUsesRawAtomics(const std::string& path) {
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) {
    if (line.find("std::atomic") != std::string::npos ||
        line.find("memory_order_") != std::string::npos) {
      return true;
    }
  }
  return false;
}

// A stale allowlist entry is a standing grant nobody audits: either the
// file is gone (renamed away) or it no longer touches raw atomics. Both
// are errors — the list must shrink in the same commit that obsoletes the
// entry, or a later change can silently start using the leftover grant.
int CheckAllowlistLiveness(const std::vector<std::string>& allowed,
                           const std::filesystem::path& root,
                           const std::vector<std::string>& scanned_rel_paths,
                           bool quiet) {
  int stale = 0;
  for (const std::string& entry : allowed) {
    bool exists = false;
    for (const std::string& rel : scanned_rel_paths) {
      if (rel == entry) {
        exists = true;
        break;
      }
    }
    if (!exists) {
      ++stale;
      if (!quiet) {
        Fail("stale allowlist entry " + entry +
             ": no such audited source file (remove it from "
             "tools/hotpath_lint_allowlist.txt)");
      }
      continue;
    }
    if (!FileUsesRawAtomics((root / entry).string())) {
      ++stale;
      if (!quiet) {
        Fail("stale allowlist entry " + entry +
             ": the file no longer uses raw std::atomic / memory_order_ "
             "(remove the entry so the grant cannot be silently reused)");
      }
    }
  }
  return stale;
}

// Scans one source file; returns violations found (also reported via Fail
// unless quiet). Used both by the real pass and the selftest.
int CheckSourceFile(const std::string& path, const std::string& rel_path,
                    bool atomics_allowed, bool quiet) {
  std::ifstream file(path);
  if (!file) {
    if (!quiet) {
      Fail("cannot open source file " + path);
    }
    return 0;
  }
  int violations = 0;
  int line_number = 0;
  std::string line;
  while (std::getline(file, line)) {
    ++line_number;
    if (line.find("memory_order_seq_cst") != std::string::npos) {
      ++violations;
      if (!quiet) {
        Fail(rel_path + ":" + std::to_string(line_number) +
             ": memory_order_seq_cst is forbidden (the one store->load ordering "
             "the protocol needs, the park/wake handshake's, comes from the "
             "parker's membarrier in src/base/locks.h)");
      }
      continue;
    }
    if (atomics_allowed) {
      continue;
    }
    if (line.find("std::atomic") != std::string::npos ||
        line.find("memory_order_") != std::string::npos) {
      ++violations;
      if (!quiet) {
        Fail(rel_path + ":" + std::to_string(line_number) +
             ": raw std::atomic / memory_order_ outside src/waitfree/ and "
             "src/base/locks.h (use SingleWriterCell, or add the file to "
             "tools/hotpath_lint_allowlist.txt with a reason)");
      }
    }
  }
  return violations;
}

void RunSourcePass(const std::string& source_root, const std::string& allowlist_path) {
  const std::vector<std::string> allowed = LoadAllowlist(allowlist_path);
  const std::filesystem::path root(source_root);
  int scanned = 0;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root / "src")) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".cc") {
      files.push_back(entry.path());
    }
  }
  std::vector<std::string> scanned_rel_paths;
  for (const auto& file : files) {
    const std::string rel_path =
        std::filesystem::relative(file, root).generic_string();
    scanned_rel_paths.push_back(rel_path);
    const bool atomics_allowed = PathContains(rel_path, "src/waitfree/") ||
                                 rel_path == "src/base/locks.h" ||
                                 IsAllowlisted(rel_path, allowed);
    CheckSourceFile(file.string(), rel_path, atomics_allowed, /*quiet=*/false);
    ++scanned;
  }
  CheckAllowlistLiveness(allowed, root, scanned_rel_paths, /*quiet=*/false);
  std::printf("hotpath lint: source pass scanned %d files (%zu allowlisted)\n", scanned,
              allowed.size());
}

// ---- Selftest ---------------------------------------------------------------

// The lint must still detect violations: a detector that silently rots is
// worse than none. The seeded-bad object references std::mutex, operator
// new and usleep; the seeded-bad source uses raw atomics and seq_cst.
int RunSelftest(const std::string& bad_object, const std::string& bad_source) {
  int rc = 0;
  const int symbol_violations =
      CheckObjectSymbols(bad_object, PurityClass::kPure, "", /*quiet=*/true);
  if (symbol_violations == 0) {
    std::fprintf(stderr,
                 "hotpath lint selftest FAIL: seeded-bad object %s raised no symbol "
                 "violations\n",
                 bad_object.c_str());
    rc = 1;
  } else {
    std::printf("selftest: symbol pass flagged the bad fixture (%d violations)\n",
                symbol_violations);
  }
  const int source_violations =
      CheckSourceFile(bad_source, "tools/lint_fixtures/hotpath_bad_source.cc",
                      /*atomics_allowed=*/false, /*quiet=*/true);
  if (source_violations == 0) {
    std::fprintf(stderr,
                 "hotpath lint selftest FAIL: seeded-bad source %s raised no "
                 "violations\n",
                 bad_source.c_str());
    rc = 1;
  } else {
    std::printf("selftest: source pass flagged the bad fixture (%d violations)\n",
                source_violations);
  }
  // Liveness pass: an allowlist naming a vanished file and one whose file
  // needs no grant (the bad source DOES use atomics, so granting it is
  // live; the clean grant below is the stale one).
  const std::vector<std::string> stale_allowlist = {
      "src/no/such/file.cc",
      "tools/lint_fixtures/hotpath_bad_source.cc",
  };
  const std::vector<std::string> scanned = {
      "tools/lint_fixtures/hotpath_bad_source.cc"};
  const std::filesystem::path bad_root =
      std::filesystem::path(bad_source).parent_path().parent_path().parent_path();
  const int stale =
      CheckAllowlistLiveness(stale_allowlist, bad_root, scanned, /*quiet=*/true);
  if (stale != 1) {
    std::fprintf(stderr,
                 "hotpath lint selftest FAIL: liveness pass found %d stale "
                 "entries in the seeded allowlist, expected exactly 1\n",
                 stale);
    rc = 1;
  } else {
    std::printf("selftest: liveness pass flagged the vanished-file grant and "
                "kept the live one\n");
  }
  // `failures` may have been bumped by quiet==false paths on I/O errors.
  return failures != 0 ? 1 : rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest;
  std::string source_root;
  std::string allowlist;
  std::string selftest_object;
  std::string selftest_source;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (arg == "--manifest") {
      manifest = next();
    } else if (arg == "--source-root") {
      source_root = next();
    } else if (arg == "--allowlist") {
      allowlist = next();
    } else if (arg == "--selftest") {
      selftest_object = next();
      selftest_source = next();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  if (!selftest_object.empty()) {
    return RunSelftest(selftest_object, selftest_source);
  }
  if (manifest.empty() || source_root.empty() || allowlist.empty()) {
    std::fprintf(stderr,
                 "usage: flipc_hotpath_lint --manifest M --source-root DIR "
                 "--allowlist F | --selftest BAD_OBJECT BAD_SOURCE\n");
    return 2;
  }

  const int symbol_entries = RunSymbolPass(manifest);
  RunSourcePass(source_root, allowlist);

  if (failures != 0) {
    std::fprintf(stderr, "hotpath lint: %d failure%s\n", failures,
                 failures == 1 ? "" : "s");
    return 1;
  }
  if (symbol_entries == 0) {
    std::printf("hotpath lint: OK — atomics discipline holds (symbol pass "
                "deferred to the plain build)\n");
  } else {
    std::printf("hotpath lint: OK — hot-path objects are free of allocation/lock/"
                "blocking references and the atomics discipline holds\n");
  }
  return 0;
}
