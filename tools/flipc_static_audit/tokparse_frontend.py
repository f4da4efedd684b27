"""The auditor's frontend: lowers C++ sources to the audit IR by token
parsing.

It is dependency-free, so the auditor runs anywhere the repo builds, and
deterministic, so the protocol-IR export is byte-stable. It is a heuristic
parser tuned to this codebase's style (Google C++, no macro-generated
functions in the audited files); the fixture self-test pins down that the
shapes below are in fact extracted.

Recognized shapes:
  * namespace / class / struct scopes (for qualified names and the
    class-scoped alias table), including heads that carry attribute macros
    (`class FLIPC_CAPABILITY("TasLock") TasLock`);
  * function definitions, incl. out-of-line `Klass::Method(...) { ... }`
    and constructors with member-initializer lists;
  * FLIPC_ROLE_* macros on declarations and definitions;
  * member cell ops  x.Publish(v) / p->ring_head.ReadRelaxed() / a[i].Read()
  * member raw atomic ops with their memory_order argument;
  * plain member assignments  recv->field = v / recv.field += v / ++recv->f
  * call edges by callee simple name (resolution is the rules engine's job).

Lambdas are scanned as part of the enclosing function body. Unparsable
constructs are skipped, never fatal: the auditor's job is the audited
subset of the tree.
"""

from __future__ import annotations

import re

from . import hotpath_scan
from .audit_ir import (
    ASSIGN_OP,
    CELL_READ_OPS,
    CELL_WRITE_OPS,
    LOCKS_ONLY_RAW_OPS,
    RAW_READ_OPS,
    RAW_WRITE_OPS,
    ROLE_MACROS,
    Access,
    CallSite,
    Function,
    Impurity,
    Loop,
    TranslationIR,
    WaitSite,
)
from .cpp_lexer import IDENT, NUMBER, PUNCT, Token, match_group

_BOUNDED_MARKER = "FLIPC_BOUNDED_BY"
_WAIT_MARKER = "FLIPC_UNBOUNDED_WAIT"

# Identifiers that look like compile-time constants: kCamelCase constants
# and ALL_CAPS macros/enumerators.
_CONST_IDENT_RE = re.compile(r"(?:k[A-Z]\w*|[A-Z][A-Z0-9_]+)$")
_MACRO_IDENT_RE = re.compile(r"[A-Z][A-Z0-9_]+$")

_NOT_A_CALL = {
    "if",
    "for",
    "while",
    "switch",
    "return",
    "sizeof",
    "alignof",
    "alignas",
    "decltype",
    "noexcept",
    "static_cast",
    "dynamic_cast",
    "reinterpret_cast",
    "const_cast",
    "static_assert",
    "catch",
    "throw",
    "new",
    "delete",
    "assert",
    "defined",
}

_ASSIGN_PUNCT = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

_SCOPE_KEYWORDS = {"class", "struct", "union"}


def _is_locks_header(rel: str) -> bool:
    return rel.replace("\\", "/").endswith("src/base/locks.h")


class _FileParser:
    def __init__(self, rel: str, tokens: list[Token], ir: TranslationIR) -> None:
        self.rel = rel
        self.toks = tokens
        self.ir = ir
        self.raw_ops = (RAW_WRITE_OPS | RAW_READ_OPS) if _is_locks_header(rel) else (
            (RAW_WRITE_OPS | RAW_READ_OPS) - LOCKS_ONLY_RAW_OPS
        )

    # ---- small token helpers ------------------------------------------------

    def _text(self, i: int) -> str:
        return self.toks[i].text if 0 <= i < len(self.toks) else ""

    def _kind(self, i: int) -> str:
        return self.toks[i].kind if 0 <= i < len(self.toks) else ""

    def _skip_template_args(self, i: int) -> int:
        """i at '<': returns index past the matching '>'. Heuristic (no
        expression context), good enough for declarator positions."""
        depth = 0
        while i < len(self.toks):
            t = self._text(i)
            if t == "<":
                depth += 1
            elif t in (">", ">>"):
                depth -= 2 if t == ">>" else 1
                if depth <= 0:
                    return i + 1
            elif t in ("(", "[", "{"):
                i = match_group(self.toks, i)
            elif t == ";":
                return i  # not template args after all
            i += 1
        return i

    # ---- declaration scanning ----------------------------------------------

    def parse(self) -> None:
        self._parse_region(0, len(self.toks), scope=[])

    def _parse_region(self, lo: int, hi: int, scope: list[str]) -> None:
        i = lo
        pending_roles: set[str] = set()
        while i < hi:
            t = self.toks[i]
            text = t.text
            if t.kind == IDENT and text == "namespace":
                i, pending_roles = self._enter_namespace(i, hi, scope), set()
            elif t.kind == IDENT and text in _SCOPE_KEYWORDS and self._text(i - 1) != "enum":
                i, pending_roles = self._enter_class(i, hi, scope), set()
            elif t.kind == IDENT and text == "enum":
                i = self._skip_to_body_or_semi(i, hi, consume_body=True)
                pending_roles = set()
            elif t.kind == IDENT and text == "template":
                i += 1
                if self._text(i) == "<":
                    i = self._skip_template_args(i)
            elif t.kind == IDENT and text in ROLE_MACROS:
                pending_roles.add(ROLE_MACROS[text])
                i += 1
            elif text in ("public", "private", "protected") and self._text(i + 1) == ":":
                i += 2
                pending_roles = set()
            elif text == ";":
                pending_roles = set()
                i += 1
            elif text == "}":
                i += 1
            elif text == "{":
                i = match_group(self.toks, i) + 1
                pending_roles = set()
            else:
                i = self._scan_declaration(i, hi, scope, pending_roles)
                pending_roles = set()

    def _enter_namespace(self, i: int, hi: int, scope: list[str]) -> int:
        j = i + 1
        parts = []
        while self._kind(j) == IDENT or self._text(j) == "::":
            if self._kind(j) == IDENT:
                parts.append(self._text(j))
            j += 1
        if self._text(j) == "{":
            end = match_group(self.toks, j)
            self._parse_region(j + 1, end, scope + parts)
            return end + 1
        # namespace alias / using: skip to ';'
        while j < hi and self._text(j) != ";":
            j += 1
        return j + 1

    def _enter_class(self, i: int, hi: int, scope: list[str]) -> int:
        j = i + 1
        name = ""
        while j < hi:
            t = self._text(j)
            if not name and self._kind(j) == IDENT:
                nxt = self._text(j + 1)
                if nxt == "(":
                    # alignas(64) or an attribute macro: FLIPC_CAPABILITY("X")
                    j = match_group(self.toks, j + 1) + 1
                    continue
                if (
                    _MACRO_IDENT_RE.fullmatch(t)
                    and self._kind(j + 1) == IDENT
                    and nxt != "final"
                ):
                    j += 1  # bare attribute macro: FLIPC_SCOPED_CAPABILITY
                    continue
                if t != "final":
                    name = t
            if t == "<":
                j = self._skip_template_args(j) - 1
            elif t == "{":
                end = match_group(self.toks, j)
                self._parse_region(j + 1, end, scope + [name or "(anon)"])
                # fall out past any trailing declarator ("} x;")
                return end + 1
            elif t == ";":
                return j + 1
            j += 1
        return hi

    def _skip_to_body_or_semi(self, i: int, hi: int, consume_body: bool) -> int:
        j = i
        while j < hi:
            t = self._text(j)
            if t == "{":
                if consume_body:
                    return match_group(self.toks, j) + 1
                return j
            if t == ";":
                return j + 1
            j += 1
        return hi

    def _scan_declaration(
        self, i: int, hi: int, scope: list[str], roles: set[str]
    ) -> int:
        """Parses one declaration starting at i; registers a Function when it
        turns out to be a definition, or declaration roles when it is a
        role-annotated prototype. ``roles`` holds role names (see
        ROLE_MACROS). Returns the index to continue from."""
        j = i
        name_chain: list[str] | None = None
        params_close = -1
        saw_eq = False
        while j < hi:
            t = self._text(j)
            if self._kind(j) == IDENT and t in ROLE_MACROS:
                roles = roles | {ROLE_MACROS[t]}
                j += 1
                continue
            if t == "(":
                close = match_group(self.toks, j)
                if name_chain is None and params_close == -1:
                    chain = self._ident_chain_before(j - 1)
                    if chain:
                        name_chain = chain
                        params_close = close
                j = close + 1
                continue
            if t == "=":
                saw_eq = True
                j += 1
                continue
            if t == "<":
                j = self._skip_template_args(j)
                continue
            if t in ("[",):
                j = match_group(self.toks, j) + 1
                continue
            if t == ";":
                if name_chain and roles:
                    klass = (
                        name_chain[-2]
                        if len(name_chain) > 1
                        else (scope[-1] if scope else "")
                    )
                    self.ir.add_decl_roles(klass, name_chain[-1], set(roles))
                return j + 1
            if t == ":" and params_close != -1 and not saw_eq:
                body = self._consume_init_list(j)
                if body is None:
                    return self._skip_to_body_or_semi(j, hi, consume_body=True)
                self._record_function(name_chain, scope, roles, body)
                return match_group(self.toks, body) + 1
            if t == "{":
                if saw_eq or name_chain is None or params_close == -1:
                    # brace initializer (or not a function): skip the group
                    j = match_group(self.toks, j) + 1
                    continue
                self._record_function(name_chain, scope, roles, j)
                return match_group(self.toks, j) + 1
            j += 1
        return hi

    def _ident_chain_before(self, j: int) -> list[str] | None:
        """Reads a (possibly ::-qualified) identifier chain ending at j,
        walking backwards. Returns None when j is not a plausible function
        name position."""
        if self._text(j) == ">":  # templated name: skip back over the args
            depth = 0
            while j >= 0:
                t = self._text(j)
                if t in (">", ">>"):
                    depth += 2 if t == ">>" else 1
                elif t == "<":
                    depth -= 1
                    if depth <= 0:
                        j -= 1
                        break
                j -= 1
        chain: list[str] = []
        if self._kind(j) != IDENT:
            # operator overloads: 'operator' + punct
            if self._kind(j) == PUNCT and self._text(j - 1) == "operator":
                return ["operator" + self._text(j)]
            return None
        name = self._text(j)
        if name in _NOT_A_CALL:
            return None
        chain.append(name)
        j -= 1
        while self._text(j) == "::" and self._kind(j - 1) == IDENT:
            chain.insert(0, self._text(j - 1))
            j -= 2
        return chain

    def _consume_init_list(self, i: int) -> int | None:
        """i at the ':' opening a constructor member-initializer list.
        Returns the index of the body '{', or None on parse failure."""
        j = i + 1
        while j < len(self.toks):
            # initializer name: qualified / templated identifier
            progressed = False
            while self._kind(j) == IDENT or self._text(j) == "::":
                j += 1
                progressed = True
            if self._text(j) == "<":
                j = self._skip_template_args(j)
                progressed = True
            if self._text(j) == "(" or self._text(j) == "{":
                if not progressed:
                    return None
                j = match_group(self.toks, j) + 1
            else:
                return None
            if self._text(j) == ",":
                j += 1
                continue
            if self._text(j) == "{":
                return j
            return None
        return None

    # ---- function bodies ----------------------------------------------------

    def _record_function(
        self, name_chain: list[str], scope: list[str], roles: set[str], body_open: int
    ) -> None:
        simple = name_chain[-1]
        if len(name_chain) > 1:
            klass = name_chain[-2]
        else:
            klass = scope[-1] if scope else ""
        qname = "::".join(scope + name_chain)
        fn = Function(
            qname=qname,
            simple=simple,
            klass=klass,
            file=self.rel,
            line=self.toks[body_open].line,
            roles=set(roles),
        )
        self._scan_body(fn, body_open + 1, match_group(self.toks, body_open))
        self.ir.functions.append(fn)

    def _member_at(self, j: int) -> tuple[str, str] | None:
        """j at the token just before a '.'/'->' + op sequence's dot. Returns
        (member, receiver)."""
        if self._text(j) == "]":
            # a[i].Op(...) — find the '[' and take the ident before it
            depth = 0
            while j >= 0:
                t = self._text(j)
                if t == "]":
                    depth += 1
                elif t == "[":
                    depth -= 1
                    if depth == 0:
                        j -= 1
                        break
                j -= 1
        if self._kind(j) != IDENT:
            return None
        member = self._text(j)
        receiver = ""
        k = j - 1
        if self._text(k) in (".", "->"):
            k -= 1
            if self._text(k) == ")":
                depth = 0
                while k >= 0:
                    t = self._text(k)
                    if t == ")":
                        depth += 1
                    elif t == "(":
                        depth -= 1
                        if depth == 0:
                            k -= 1
                            break
                    k -= 1
            if self._kind(k) == IDENT:
                receiver = self._text(k)
        return member, receiver

    def _find_order(self, open_paren: int) -> str | None:
        close = match_group(self.toks, open_paren)
        for k in range(open_paren + 1, close):
            t = self._text(k)
            if t.startswith("memory_order_"):
                return t[len("memory_order_") :]
            if t == "memory_order" and self._text(k + 1) == "::":
                return self._text(k + 2)
        return None

    # ---- loop boundedness ---------------------------------------------------

    def _top_level_split(self, open_paren: int) -> tuple[int, list[int], int]:
        """For the paren group at ``open_paren``: (close index, indices of
        top-level ';' tokens, index of the first top-level ':' or -1)."""
        close = match_group(self.toks, open_paren)
        depth = 0
        semis: list[int] = []
        colon = -1
        for k in range(open_paren + 1, close):
            txt = self._text(k)
            if txt in ("(", "[", "{"):
                depth += 1
            elif txt in (")", "]", "}"):
                depth -= 1
            elif depth == 0:
                if txt == ";":
                    semis.append(k)
                elif txt == ":" and colon == -1:
                    colon = k
        return close, semis, colon

    def _side_is_constant(self, lo: int, hi: int) -> bool:
        """True when toks[lo:hi] is an expression built only from literals
        and constant-looking identifiers (kFoo / ALL_CAPS / sizeof)."""
        ok_punct = {"::", ".", "->", "(", ")", "+", "-", "*", "/", "%", "<<", ">>", ","}
        has_const = False
        for k in range(lo, hi):
            t = self.toks[k]
            if t.kind == NUMBER:
                has_const = True
            elif t.kind == IDENT:
                if t.text == "sizeof" or _CONST_IDENT_RE.fullmatch(t.text):
                    has_const = True
                elif t.text not in ("true", "false"):
                    return False
            elif t.text not in ok_punct:
                return False
        return has_const

    def _cond_is_bounded(self, lo: int, hi: int) -> bool:
        """Heuristic trip-bound recognizer for a loop condition toks[lo:hi):
        countdown loops (`budget-- > 0`) and comparisons against a
        compile-time-constant-looking bound (`i < kMax`, `i != 4`)."""
        if hi <= lo:
            return False
        for k in range(lo, hi):
            if self._text(k) == "--":
                return True
        depth = 0
        for k in range(lo, hi):
            txt = self._text(k)
            if txt in ("(", "[", "{"):
                depth += 1
            elif txt in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and txt in ("<", "<=", ">", ">=", "!="):
                return self._side_is_constant(lo, k) or self._side_is_constant(
                    k + 1, hi
                )
        return False

    # ---- body scanning ------------------------------------------------------

    def _scan_body(self, fn: Function, lo: int, hi: int) -> None:
        calls: set[str] = set()
        depth = 0
        # Brace depths at which a hot scope / exemption was armed, exactly
        # the hotpath_scan.scan() discipline but function-local. Exemptions
        # count even in functions that never arm a scope themselves: a
        # callee's FLIPC_HOT_PATH_EXEMPT region suspends the caller's armed
        # scope at run time, so the certifier honors it statically too.
        hot_depths: list[int] = []
        exempt_depths: list[int] = []
        pending_bound: str | None = None
        pending_wait = False
        # Token index of a do-block's closing '}' -> its Loop record, so the
        # trailing `while (cond)` updates the right loop instead of opening
        # a new one.
        do_tails: dict[int, Loop] = {}

        def in_hot() -> bool:
            return bool(hot_depths) and not exempt_depths

        def in_exempt() -> bool:
            return bool(exempt_depths)

        def add_loop(kind: str, line: int, bounded: bool) -> Loop:
            nonlocal pending_bound, pending_wait
            loop = Loop(
                kind=kind,
                file=self.rel,
                line=line,
                bounded=bounded,
                bound=pending_bound,
                wait=pending_wait,
                in_hot=in_hot(),
                in_exempt=in_exempt(),
            )
            pending_bound = None
            pending_wait = False
            fn.loops.append(loop)
            return loop

        i = lo
        while i < hi:
            t = self.toks[i]
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
                nxt = self._text(i + 1)
                prev = self._text(i - 1)
                if text in hotpath_scan.HOT_MARKERS:
                    hot_depths.append(depth)
                    fn.hot_lines.append(t.line)
                    i += 1
                    continue
                if text == hotpath_scan.EXEMPT_MARKER:
                    exempt_depths.append(depth)
                    i += 1
                    continue
                if text == _BOUNDED_MARKER and nxt == "(":
                    close = match_group(self.toks, i + 1)
                    pending_bound = " ".join(
                        self._text(k) for k in range(i + 2, close)
                    )
                    i = close + 1
                    continue
                if text == _WAIT_MARKER and nxt == "(":
                    pending_wait = True
                    fn.wait_sites.append(
                        WaitSite(file=self.rel, line=t.line, in_hot=in_hot())
                    )
                    i = match_group(self.toks, i + 1) + 1
                    continue
                if text == "for" and nxt == "(":
                    close, semis, colon = self._top_level_split(i + 1)
                    if not semis and colon != -1:
                        add_loop("range-for", t.line, True)
                    elif len(semis) >= 2:
                        cond_lo, cond_hi = semis[0] + 1, semis[1]
                        if cond_hi <= cond_lo:
                            add_loop("forever", t.line, False)
                        else:
                            add_loop(
                                "for", t.line, self._cond_is_bounded(cond_lo, cond_hi)
                            )
                    else:
                        add_loop("for", t.line, False)
                    i += 1
                    continue
                if text == "while" and nxt == "(":
                    tail_of = do_tails.pop(i - 1, None) if prev == "}" else None
                    close = match_group(self.toks, i + 1)
                    if tail_of is not None:
                        tail_of.bounded = self._cond_is_bounded(i + 2, close)
                    else:
                        add_loop(
                            "while", t.line, self._cond_is_bounded(i + 2, close)
                        )
                    i += 1
                    continue
                if text == "do" and nxt == "{":
                    loop = add_loop("do", t.line, False)
                    do_tails[match_group(self.toks, i + 1)] = loop
                    i += 1
                    continue
                if not in_exempt():
                    if text in hotpath_scan.BANNED_KEYWORDS:
                        fn.impurities.append(
                            Impurity(
                                what=hotpath_scan.BANNED_KEYWORDS[text].replace(
                                    " in a hot-path scope", ""
                                ),
                                file=self.rel,
                                line=t.line,
                            )
                        )
                    elif (
                        text in hotpath_scan.BANNED_TYPES
                        and prev not in (".", "->")
                    ):
                        fn.impurities.append(
                            Impurity(
                                what=hotpath_scan.BANNED_TYPES[text].replace(
                                    " in a hot-path scope", ""
                                ),
                                file=self.rel,
                                line=t.line,
                            )
                        )
                    elif (
                        text in hotpath_scan.BANNED_CALLS
                        and nxt == "("
                        and prev not in (".", "->")
                    ):
                        fn.impurities.append(
                            Impurity(
                                what=hotpath_scan.banned_call_what(text),
                                file=self.rel,
                                line=t.line,
                            )
                        )
                if nxt == "(":
                    if text in CELL_WRITE_OPS or text in CELL_READ_OPS:
                        if prev in (".", "->"):
                            got = self._member_at(i - 2)
                            if got:
                                fn.accesses.append(
                                    Access(
                                        member=got[0],
                                        receiver=got[1],
                                        op=text,
                                        order=None,
                                        file=self.rel,
                                        line=t.line,
                                    )
                                )
                    elif text in self.raw_ops:
                        if prev in (".", "->"):
                            got = self._member_at(i - 2)
                            if got:
                                fn.accesses.append(
                                    Access(
                                        member=got[0],
                                        receiver=got[1],
                                        op=text,
                                        order=self._find_order(i + 1),
                                        file=self.rel,
                                        line=t.line,
                                    )
                                )
                    if (
                        text not in _NOT_A_CALL
                        and prev != "new"
                        and not text.startswith("FLIPC_")
                    ):
                        calls.add(text)
                        fn.call_sites.append(
                            CallSite(
                                name=text,
                                line=t.line,
                                in_hot=in_hot(),
                                in_exempt=in_exempt(),
                            )
                        )
                elif nxt in _ASSIGN_PUNCT and prev in (".", "->"):
                    got = self._member_at(i)
                    if got:
                        fn.accesses.append(
                            Access(
                                member=got[0],
                                receiver=got[1],
                                op=ASSIGN_OP,
                                order=None,
                                file=self.rel,
                                line=t.line,
                            )
                        )
                elif nxt in ("++", "--") and prev in (".", "->"):
                    got = self._member_at(i)
                    if got:
                        fn.accesses.append(
                            Access(
                                member=got[0],
                                receiver=got[1],
                                op=ASSIGN_OP,
                                order=None,
                                file=self.rel,
                                line=t.line,
                            )
                        )
            elif text in ("++", "--"):
                # prefix increment of a member: ++recv->member
                j = i + 1
                if self._kind(j) == IDENT and self._text(j + 1) in (".", "->"):
                    member_tok = j + 2
                    if (
                        self._kind(member_tok) == IDENT
                        and self._text(member_tok + 1) not in (".", "->", "(")
                    ):
                        fn.accesses.append(
                            Access(
                                member=self._text(member_tok),
                                receiver=self._text(j),
                                op=ASSIGN_OP,
                                order=None,
                                file=self.rel,
                                line=t.line,
                            )
                        )
            i += 1
        fn.calls = sorted(calls)

