"""Shared micro-IR for the FLIPC static protocol auditor.

The token-parser frontend (tokparse_frontend.py) lowers the audited sources
into this IR; the rules engine consumes only this, so the rules are tested
independently of how the facts were extracted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Access ops. Cell ops are the SingleWriterCell interface; raw ops are the
# std::atomic interface (order is the explicit memory_order argument, or
# None when the call relied on the seq_cst default — a hard error).
CELL_WRITE_OPS = {"Publish": "release", "StoreRelaxed": "relaxed"}
CELL_READ_OPS = {"Read": "acquire", "ReadRelaxed": "relaxed"}
RAW_WRITE_OPS = {
    "store",
    "exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "test_and_set",
    "compare_exchange_weak",
    "compare_exchange_strong",
    "clear",
}
RAW_READ_OPS = {"load", "test"}
# `clear` and `test` collide with std::vector/std::bitset-style interfaces;
# the frontend only emits them for src/base/locks.h (the one audited file using
# std::atomic_flag).
LOCKS_ONLY_RAW_OPS = {"clear", "test"}

ASSIGN_OP = "assign"  # plain (non-atomic) member store

ROLE_APP = "app"
ROLE_ENGINE = "engine"
ROLE_QUIESCENT = "quiescent"
# Role annotation macros as declared in the source.
ROLE_MACROS = {
    "FLIPC_ROLE_APP": ROLE_APP,
    "FLIPC_ROLE_ENGINE": ROLE_ENGINE,
    "FLIPC_ROLE_QUIESCENT": ROLE_QUIESCENT,
}


@dataclass
class Access:
    member: str  # member the operation is applied to ("release_", "ring_head")
    receiver: str  # identifier the member was reached through ("cursors_"), or ""
    op: str  # one of CELL_*/RAW_* op names, or ASSIGN_OP
    order: str | None  # explicit memory_order name for raw ops, else None
    file: str
    line: int

    @property
    def is_write(self) -> bool:
        return op_is_write(self.op)

    @property
    def is_cell_op(self) -> bool:
        return self.op in CELL_WRITE_OPS or self.op in CELL_READ_OPS

    @property
    def is_raw_op(self) -> bool:
        return self.op in RAW_WRITE_OPS or self.op in RAW_READ_OPS


def op_is_write(op: str) -> bool:
    return op in CELL_WRITE_OPS or op in RAW_WRITE_OPS or op == ASSIGN_OP


@dataclass
class CallSite:
    """One `name(...)` call expression inside a function body."""

    name: str  # callee simple name
    line: int
    in_hot: bool  # inside an armed (FLIPC_HOT_PATH*) non-exempt region
    in_exempt: bool  # inside a FLIPC_HOT_PATH_EXEMPT region


@dataclass
class Loop:
    """One loop statement inside a function body, with the facts the
    bounded-progress certifier needs."""

    kind: str  # "for" | "forever" | "range-for" | "while" | "do"
    file: str
    line: int
    bounded: bool  # trip bound recognized automatically (constant/countdown)
    bound: str | None  # FLIPC_BOUNDED_BY(expr) annotation text, if any
    wait: bool  # annotated FLIPC_UNBOUNDED_WAIT park site
    in_hot: bool
    in_exempt: bool


@dataclass
class Impurity:
    """A banned-construct site (allocation/unwinding/lock type/blocking
    call) OUTSIDE exempt regions — reported when the enclosing function is
    reachable from a hot-path scope."""

    what: str  # human-readable description, mirrors hotpath_scan's wording
    file: str
    line: int


@dataclass
class WaitSite:
    """A FLIPC_UNBOUNDED_WAIT annotation site (for the hot-scope ban and
    the perf-smoke gate's census)."""

    file: str
    line: int
    in_hot: bool


@dataclass
class Function:
    qname: str  # qualified as well as the parser could manage
    simple: str  # unqualified name ("Send")
    klass: str  # enclosing class name ("Endpoint"), "" for free functions
    file: str
    line: int
    roles: set[str] = field(default_factory=set)  # declared roles
    calls: list[str] = field(default_factory=list)  # simple callee names
    accesses: list[Access] = field(default_factory=list)
    hot_lines: list[int] = field(default_factory=list)  # FLIPC_HOT_PATH markers
    call_sites: list[CallSite] = field(default_factory=list)
    loops: list[Loop] = field(default_factory=list)
    impurities: list[Impurity] = field(default_factory=list)
    wait_sites: list[WaitSite] = field(default_factory=list)

    @property
    def is_hot_root(self) -> bool:
        return bool(self.hot_lines)


@dataclass
class TranslationIR:
    """Everything the frontend extracted from the audited sources."""

    functions: list[Function] = field(default_factory=list)
    # Roles found on declarations without bodies, keyed (klass, simple);
    # merged onto matching definitions by the rules engine.
    decl_roles: dict[tuple[str, str], set[str]] = field(default_factory=dict)

    def add_decl_roles(self, klass: str, simple: str, roles: set[str]) -> None:
        if roles:
            self.decl_roles.setdefault((klass, simple), set()).update(roles)

    def merge(self, other: "TranslationIR") -> None:
        self.functions.extend(other.functions)
        for key, roles in other.decl_roles.items():
            self.decl_roles.setdefault(key, set()).update(roles)
