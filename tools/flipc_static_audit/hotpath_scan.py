"""Rule 3: hot-path purity, by token scan.

FLIPC_HOT_PATH / FLIPC_HOT_PATH_IF mark the latency-critical scopes (see
src/base/hotpath.h). Inside such a scope — from the marker to the closing
brace of the block containing it — the static audit bans, at the token
level:

  * dynamic allocation and unwinding: ``new`` / ``delete`` / ``throw`` /
    ``try`` / ``catch``;
  * OS-blocking synchronization types: ``std::mutex`` and friends,
    ``std::condition_variable``;
  * direct calls to the C allocator and to the blocking libc/pthread
    functions that the post-link nm lint (tools/flipc_hotpath_lint.cc) also
    rejects. The runtime guard hooks only ``operator new``, and the nm lint
    lets ``nolock`` TUs allocate, so in those TUs this scan is the only
    check that sees a ``malloc`` in a hot scope.

FLIPC_HOT_PATH_EXEMPT re-permits the *rest of its enclosing block* — the
static analog of the runtime ScopedHotPath(kExempt) guard; cold error
branches use it.

The scan is intraprocedural by design: callees compiled into the binary
are covered by the nm symbol lint, and the runtime guards catch whatever
slips through dynamic dispatch. What the token scan adds is source-level,
per-line attribution before anything ever runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cpp_lexer import IDENT, Token

HOT_MARKERS = {"FLIPC_HOT_PATH", "FLIPC_HOT_PATH_IF"}
EXEMPT_MARKER = "FLIPC_HOT_PATH_EXEMPT"

BANNED_KEYWORDS = {
    "new": "dynamic allocation (new) in a hot-path scope",
    "delete": "dynamic deallocation (delete) in a hot-path scope",
    "throw": "exception throw in a hot-path scope",
    "try": "try-block in a hot-path scope",
    "catch": "catch handler in a hot-path scope",
}

BANNED_TYPES = {
    "mutex": "std::mutex in a hot-path scope",
    "recursive_mutex": "std::recursive_mutex in a hot-path scope",
    "shared_mutex": "std::shared_mutex in a hot-path scope",
    "timed_mutex": "std::timed_mutex in a hot-path scope",
    "recursive_timed_mutex": "std::recursive_timed_mutex in a hot-path scope",
    "shared_timed_mutex": "std::shared_timed_mutex in a hot-path scope",
    "condition_variable": "std::condition_variable in a hot-path scope",
    "condition_variable_any": "std::condition_variable_any in a hot-path scope",
}

# Mirrors the C allocator family of kAllocSymbols in
# tools/flipc_hotpath_lint.cc, plus free.
ALLOC_CALLS = {
    "malloc",
    "calloc",
    "realloc",
    "aligned_alloc",
    "posix_memalign",
    "memalign",
    "valloc",
    "free",
}

# ALLOC_CALLS plus mirrors of kLockSymbols/kBlockingSymbols.
BANNED_CALLS = ALLOC_CALLS | {
    "pthread_mutex_lock",
    "pthread_mutex_trylock",
    "pthread_mutex_timedlock",
    "pthread_mutex_unlock",
    "pthread_rwlock_rdlock",
    "pthread_rwlock_wrlock",
    "pthread_rwlock_unlock",
    "pthread_spin_lock",
    "pthread_spin_unlock",
    "pthread_cond_wait",
    "pthread_cond_timedwait",
    "pthread_cond_signal",
    "pthread_cond_broadcast",
    "sem_wait",
    "sem_timedwait",
    "sem_post",
    "nanosleep",
    "clock_nanosleep",
    "usleep",
    "sleep",
    "poll",
    "ppoll",
    "select",
    "pselect",
    "epoll_wait",
    "epoll_pwait",
    "pause",
    "sigwait",
}


def banned_call_what(name: str) -> str:
    kind = "C allocator" if name in ALLOC_CALLS else "blocking"
    return f"{kind} call {name}()"


@dataclass(frozen=True)
class HotPathViolation:
    file: str
    line: int
    what: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: hot-path: {self.what}"


def scan(rel: str, tokens: list[Token]) -> list[HotPathViolation]:
    violations: list[HotPathViolation] = []
    depth = 0
    # Stack of brace depths at which a hot scope was armed; hot while
    # non-empty. Exemptions record the depth whose block they cover.
    hot_depths: list[int] = []
    exempt_depths: list[int] = []

    def hot() -> bool:
        return bool(hot_depths) and not exempt_depths

    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        text = t.text
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
            while hot_depths and depth < hot_depths[-1]:
                hot_depths.pop()
            while exempt_depths and depth < exempt_depths[-1]:
                exempt_depths.pop()
        elif t.kind == IDENT:
            if text in HOT_MARKERS:
                hot_depths.append(depth)
            elif text == EXEMPT_MARKER:
                if hot_depths:
                    exempt_depths.append(depth)
            elif hot():
                nxt = tokens[i + 1].text if i + 1 < n else ""
                prev = tokens[i - 1].text if i > 0 else ""
                if text in BANNED_KEYWORDS:
                    violations.append(
                        HotPathViolation(rel, t.line, BANNED_KEYWORDS[text])
                    )
                elif text in BANNED_TYPES and prev != "." and prev != "->":
                    violations.append(
                        HotPathViolation(rel, t.line, BANNED_TYPES[text])
                    )
                elif (
                    text in BANNED_CALLS
                    and nxt == "("
                    and prev not in (".", "->")
                ):
                    what = f"{banned_call_what(text)} in a hot-path scope"
                    violations.append(HotPathViolation(rel, t.line, what))
        i += 1
    return violations
