#!/usr/bin/env python3
"""FLIPC static protocol auditor / wait-free certifier.

Statically proves, over ``src/base``, ``src/waitfree``, ``src/shm``,
``src/engine`` and ``src/flipc``, the properties the runtime guards only
check for executions that actually happen:

  1. **Role/ownership** — every write to a field listed in
     ``src/shm/ownership_layout.h`` occurs in a function reachable only
     from entry points of that field's owning role (``FLIPC_ROLE_APP`` /
     ``FLIPC_ROLE_ENGINE``), or from a ``FLIPC_ROLE_QUIESCENT`` setup
     closure when the field is marked quiescent-writable.
  2. **Memory-order policy** — every atomic access names an explicit
     ``memory_order`` matching the per-field ordering kind exported from
     the ownership tables; defaulted (seq_cst) orders are hard errors, and
     ``memory_order_seq_cst`` itself is forbidden everywhere (the park/wake
     handshake orders with membarrier, ``src/base/locks.h``).
  3. **Hot-path purity, interprocedural** — inside ``FLIPC_HOT_PATH``
     scopes: no new/delete/throw/try, no OS mutex/condvar types, no
     blocking libc calls — and the same for every function transitively
     reachable from such a scope through the cross-TU call graph (the
     purity CLOSURE; ``FLIPC_HOT_PATH_EXEMPT`` regions cut call edges and
     waive constructs, exactly as they suspend the runtime guards).
  4. **Bounded progress** — every loop reachable from a wait-free entry
     point (a hot-path scope) must have a recognizable constant/countdown
     trip bound, carry a ``FLIPC_BOUNDED_BY(expr)`` annotation naming its
     bound, or be a ``FLIPC_UNBOUNDED_WAIT`` park site — and park sites
     are hard errors inside hot scopes or anywhere in the hot closure.

The field policy is ``tools/ownership_policy.json``, generated from the
constexpr ownership tables by ``tools/flipc_ownership_export`` (a drift
ctest keeps the two in lockstep). Facts come from a dependency-free token
parser (tokparse_frontend.py); the whole tree re-parses in well under a
second, so nothing is cached.

The auditor can also EXPORT the protocol it proved: ``--emit-ir`` writes
the per-function protocol IR (field, access kind, memory order, role,
program order) for ``src/waitfree`` as JSON, and
``--emit-schedules`` generates the armed model-check schedule seeds for
the two rings from that IR (consumed by tests/model_check_test.cc; both
artifacts are checked in and drift-tested like ownership_policy.json).

Usage:
  flipc_static_audit.py --policy tools/ownership_policy.json \
      --source-root . [--json PATH] [--emit-ir PATH] [--emit-schedules PATH]
  flipc_static_audit.py --selftest tools/lint_fixtures/static_audit

Exit status: 0 clean, 1 violations (or fixture expectation failures),
2 usage/environment errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import defaultdict
from dataclasses import dataclass

if __package__ in (None, ""):  # running as a plain script
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from flipc_static_audit import (
        cpp_lexer,
        hotpath_scan,
        schedule_gen,
        tokparse_frontend,
    )
    from flipc_static_audit.audit_ir import (
        ASSIGN_OP,
        CELL_READ_OPS,
        CELL_WRITE_OPS,
        ROLE_QUIESCENT,
        TranslationIR,
        op_is_write,
    )
else:
    from . import cpp_lexer, hotpath_scan, schedule_gen, tokparse_frontend
    from .audit_ir import (
        ASSIGN_OP,
        CELL_READ_OPS,
        CELL_WRITE_OPS,
        ROLE_QUIESCENT,
        TranslationIR,
        op_is_write,
    )

AUDITED_DIRS = ("src/base", "src/engine", "src/flipc", "src/shm", "src/waitfree")
AUDITED_EXTS = (".h", ".cc")

# The protocol-IR export covers the wait-free protocol structures.
PROTOCOL_IR_PREFIX = "src/waitfree/"


# --------------------------------------------------------------------------
# Findings
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    rule: str  # role | order | policy | hot-path | hot-closure | progress | ir-drift
    file: str
    line: int | None  # None for whole-file findings
    function: str  # enclosing function qname, "" for file-level findings
    message: str

    def __str__(self) -> str:
        if self.line is None:
            return f"{self.file}: {self.rule}: {self.message}"
        return f"{self.file}:{self.line}: {self.rule}: {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "file": self.file,
            "line": 0 if self.line is None else self.line,
            "function": self.function,
            "verdict": "violation",
            "message": self.message,
        }


# --------------------------------------------------------------------------
# Policy
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldPolicy:
    name: str  # "QueueCursors.release_count"
    writer: str  # "app" | "engine"
    quiescent: bool
    kind: str  # cursor|hint_cursor|flag|counter|config|config_publish|data_cell|rmw|plain

    @property
    def member(self) -> str:
        return self.name.split(".")[-1]


class Policy:
    def __init__(self, doc: dict) -> None:
        self.fields: dict[str, FieldPolicy] = {}
        self.by_member: dict[str, list[FieldPolicy]] = defaultdict(list)
        for row in doc["fields"]:
            f = FieldPolicy(
                name=row["name"],
                writer=row["writer"],
                quiescent=bool(row["quiescent"]),
                kind=row["kind"],
            )
            self.fields[f.name] = f
            self.by_member[f.member].append(f)
        # Aliases: "field" containing '.' maps a member variable straight to
        # a policy field; without '.' it maps a receiver variable to a
        # struct, prefixing subsequent member lookups.
        self.member_aliases: dict[tuple[str, str], str] = {}
        self.struct_aliases: dict[tuple[str, str], str] = {}
        for row in doc.get("aliases", []):
            key = (row["class"], row["member"])
            if "." in row["field"]:
                self.member_aliases[key] = row["field"]
            else:
                self.struct_aliases[key] = row["field"]
        self.alternating_members: set[str] = set(doc.get("alternating_members", []))

    def _lookup_alias(self, table: dict, klass: str, key: str) -> str | None:
        return table.get((klass, key)) or table.get(("*", key))

    def resolve(self, klass: str, acc) -> tuple[FieldPolicy | None, bool]:
        """Maps an access to a FieldPolicy. Returns (field, via_struct_alias);
        ``via_struct_alias`` is True when the receiver named an aliased
        struct — then a None field means "unknown member of a governed
        struct", which is itself reportable for writes.

        Plain (non-atomic) assignments resolve ONLY through struct aliases:
        local structs routinely share member names with shared-memory
        layouts (e.g. ComputeLayout's ``layout.X = ...``), and plain stores
        to anything else cannot touch an atomic policy field anyway."""
        struct = self._lookup_alias(self.struct_aliases, klass, acc.receiver)
        if acc.op == ASSIGN_OP:
            if struct is None:
                return None, False
            return self.fields.get(struct + "." + acc.member), True
        target = self._lookup_alias(self.member_aliases, klass, acc.member)
        if target is not None:
            return self.fields.get(target), False
        if struct is not None:
            return self.fields.get(struct + "." + acc.member), True
        cands = self.by_member.get(acc.member, [])
        if len(cands) == 1:
            return cands[0], False
        if cands and all(
            (c.writer, c.kind, c.quiescent)
            == (cands[0].writer, cands[0].kind, cands[0].quiescent)
            for c in cands
        ):
            return cands[0], False
        return None, False


def load_policy(path: str) -> Policy:
    with open(path, "r", encoding="utf-8") as f:
        return Policy(json.load(f))


# --------------------------------------------------------------------------
# Rules engine: roles + memory orders
# --------------------------------------------------------------------------

_PUBLISH_ONLY_KINDS = {"cursor", "hint_cursor", "flag", "counter", "config_publish"}
_ACQUIRE_READ_KINDS = {"cursor", "flag"}


def _role_reachability(ir: TranslationIR) -> dict[int, set[str]]:
    """BFS role propagation over the simple-name call graph: reach[f] is the
    set of roles whose annotated entry points can reach f.

    Annotated functions are propagation BARRIERS: their declared roles are
    authoritative and caller roles do not flow through them. This is the
    division of labor with the runtime boundary detector — the annotation
    itself is validated dynamically (a thread of the wrong role entering an
    annotated entry point trips FLIPC_CHECK_SINGLE_WRITER), while the
    auditor proves the unannotated closure BETWEEN annotations writes only
    what the entry role owns. It is also what keeps the simple-name call
    graph sound in practice: ``wire_.Send()`` inside the engine must not
    drag the engine role into ``Endpoint::Send``'s app closure just because
    the methods share a name."""
    for fn in ir.functions:
        fn.roles |= ir.decl_roles.get((fn.klass, fn.simple), set())
    by_simple: dict[str, list] = defaultdict(list)
    for fn in ir.functions:
        by_simple[fn.simple].append(fn)
    reach: dict[int, set[str]] = {id(fn): set(fn.roles) for fn in ir.functions}
    work = [fn for fn in ir.functions if fn.roles]
    while work:
        fn = work.pop()
        roles = reach[id(fn)]
        for callee in fn.calls:
            for g in by_simple.get(callee, ()):
                if g.roles:
                    continue  # annotation barrier: declared roles win
                if not roles <= reach[id(g)]:
                    reach[id(g)] |= roles
                    work.append(g)
    return reach


def _check_write_roles(findings, fn, acc, fld, roles, eff) -> None:
    if not roles:
        findings.append(
            Finding(
                "role",
                acc.file,
                acc.line,
                fn.qname,
                f"write to {fld.name} from a function with no "
                f"FLIPC_ROLE_* entry point in its caller closure (unrooted write)",
            )
        )
    elif fld.quiescent:
        if eff:
            findings.append(
                Finding(
                    "role",
                    acc.file,
                    acc.line,
                    fn.qname,
                    f"{fld.name} is quiescent-only but is written "
                    f"from {{{', '.join(sorted(eff))}}} hot closures",
                )
            )
    else:
        foreign = eff - {fld.writer}
        if foreign:
            findings.append(
                Finding(
                    "role",
                    acc.file,
                    acc.line,
                    fn.qname,
                    f"{fld.name} is owned by {fld.writer} but is "
                    f"written from {{{', '.join(sorted(foreign))}}} closures",
                )
            )


def _check_access(findings, fn, acc, policy: Policy, roles: set[str]) -> None:
    eff = roles - {ROLE_QUIESCENT}
    fld, via_struct = policy.resolve(fn.klass, acc)

    if acc.op == ASSIGN_OP:
        if fld is None:
            if via_struct:
                findings.append(
                    Finding(
                        "policy",
                        acc.file,
                        acc.line,
                        fn.qname,
                        f"assignment through an aliased struct to "
                        f"member '{acc.member}' that the ownership tables do not list",
                    )
                )
            return
        if fld.kind != "plain":
            findings.append(
                Finding(
                    "order",
                    acc.file,
                    acc.line,
                    fn.qname,
                    f"non-atomic assignment to {fld.name} (kind {fld.kind})",
                )
            )
        _check_write_roles(findings, fn, acc, fld, roles, eff)
        return

    if acc.is_cell_op:
        if fld is None:
            if acc.is_write and acc.member not in policy.alternating_members:
                findings.append(
                    Finding(
                        "role",
                        acc.file,
                        acc.line,
                        fn.qname,
                        f"cell write {acc.member}.{acc.op}() does not "
                        f"resolve to any ownership-table field",
                    )
                )
            return
        if fld.kind == "plain":
            findings.append(
                Finding(
                    "order",
                    acc.file,
                    acc.line,
                    fn.qname,
                    f"atomic cell op on {fld.name}, which the policy declares plain",
                )
            )
            return
        if fld.kind == "rmw":
            findings.append(
                Finding(
                    "order",
                    acc.file,
                    acc.line,
                    fn.qname,
                    f"SingleWriterCell op on {fld.name}, which the "
                    f"policy declares rmw (raw std::atomic)",
                )
            )
            return
        if acc.is_write:
            # Quiescent-only closures may initialize any kind with relaxed
            # stores; everyone else follows the kind profile.
            if eff and fld.kind in _PUBLISH_ONLY_KINDS and acc.op != "Publish":
                findings.append(
                    Finding(
                        "order",
                        acc.file,
                        acc.line,
                        fn.qname,
                        f"{fld.name} (kind {fld.kind}) must be "
                        f"written with Publish(), not {acc.op}()",
                    )
                )
            _check_write_roles(findings, fn, acc, fld, roles, eff)
        else:
            if (
                acc.op == "ReadRelaxed"
                and fld.kind in _ACQUIRE_READ_KINDS
                and eff - {fld.writer}
            ):
                findings.append(
                    Finding(
                        "order",
                        acc.file,
                        acc.line,
                        fn.qname,
                        f"cross-role read of {fld.name} (kind "
                        f"{fld.kind}) must use Read() (acquire), not ReadRelaxed()",
                    )
                )
        return

    if acc.is_raw_op:
        if acc.order is None:
            findings.append(
                Finding(
                    "order",
                    acc.file,
                    acc.line,
                    fn.qname,
                    f"{acc.member}.{acc.op}() relies on the "
                    f"defaulted memory_order (seq_cst); name the order explicitly",
                )
            )
        if fld is not None:
            if fld.kind != "rmw":
                findings.append(
                    Finding(
                        "order",
                        acc.file,
                        acc.line,
                        fn.qname,
                        f"raw std::atomic op on {fld.name} (kind "
                        f"{fld.kind}); use the SingleWriterCell interface",
                    )
                )
            elif acc.is_write:
                _check_write_roles(findings, fn, acc, fld, roles, eff)


def run_rules(ir: TranslationIR, policy: Policy) -> list[Finding]:
    findings: list[Finding] = []
    reach = _role_reachability(ir)
    for fn in ir.functions:
        roles = reach[id(fn)]
        for acc in fn.accesses:
            _check_access(findings, fn, acc, policy, roles)
    return findings


# --------------------------------------------------------------------------
# Rules engine: interprocedural purity closure + bounded progress
# --------------------------------------------------------------------------


def run_closure_rules(ir: TranslationIR) -> list[Finding]:
    """The whole-program half of the wait-free certificate.

    Roots are functions containing an armed hot-path scope. From every call
    made inside such a scope (outside FLIPC_HOT_PATH_EXEMPT regions) the
    certifier chases the cross-TU call graph by callee simple name — the
    same over-approximating resolution the role pass uses, so every
    same-named audited function must satisfy the obligations — and
    requires, for every function in the closure:

      * purity: no allocation/unwinding/lock types/blocking libc calls
        outside exempt regions (the caller's armed scope stays armed
        through the callee at run time, so the static obligation follows
        the same contour);
      * bounded progress: every loop outside exempt regions has a
        recognized constant/countdown bound or a FLIPC_BOUNDED_BY
        annotation, and FLIPC_UNBOUNDED_WAIT park sites are errors (a
        wait-free entry point must not reach an unbounded wait).

    The roots' own hot regions carry the same loop obligations; their
    banned-construct scan is run_token_rules' hotpath_scan (per-line,
    per-scope attribution)."""
    findings: list[Finding] = []
    by_simple: dict[str, list] = defaultdict(list)
    for fn in ir.functions:
        by_simple[fn.simple].append(fn)

    def check_loop(fn, loop, root: str, is_root: bool) -> None:
        if loop.wait:
            if not is_root:
                findings.append(
                    Finding(
                        "progress",
                        loop.file,
                        loop.line,
                        fn.qname,
                        f"FLIPC_UNBOUNDED_WAIT park site in '{fn.qname}' is "
                        f"reachable from wait-free entry point '{root}'",
                    )
                )
            return
        if loop.bounded or loop.bound is not None:
            return
        findings.append(
            Finding(
                "progress",
                loop.file,
                loop.line,
                fn.qname,
                f"unbounded {loop.kind} loop in '{fn.qname}' reachable from "
                f"wait-free entry point '{root}'; bound the trip count, "
                f"annotate FLIPC_BOUNDED_BY(expr), or park it outside hot "
                f"scopes with FLIPC_UNBOUNDED_WAIT",
            )
        )

    # id(fn) -> (root qname, "file:line" of the call that pulled it in).
    origin: dict[int, tuple[str, str]] = {}
    work: list = []
    for fn in ir.functions:
        if not fn.is_hot_root:
            continue
        for w in fn.wait_sites:
            if w.in_hot:
                findings.append(
                    Finding(
                        "progress",
                        w.file,
                        w.line,
                        fn.qname,
                        "FLIPC_UNBOUNDED_WAIT park site inside a hot-path scope",
                    )
                )
        for loop in fn.loops:
            if loop.in_hot:
                check_loop(fn, loop, fn.qname, is_root=True)
        for cs in fn.call_sites:
            if cs.in_hot and not cs.in_exempt:
                for g in by_simple.get(cs.name, ()):
                    if id(g) not in origin and g is not fn:
                        origin[id(g)] = (fn.qname, f"{fn.file}:{cs.line}")
                        work.append(g)

    while work:
        g = work.pop()
        root, via = origin[id(g)]
        for imp in g.impurities:
            findings.append(
                Finding(
                    "hot-closure",
                    imp.file,
                    imp.line,
                    g.qname,
                    f"{imp.what} in '{g.qname}', which is reachable from the "
                    f"hot-path scope in '{root}' (called at {via})",
                )
            )
        for loop in g.loops:
            if not loop.in_exempt:
                check_loop(g, loop, root, is_root=False)
        for cs in g.call_sites:
            if not cs.in_exempt:
                for h in by_simple.get(cs.name, ()):
                    if id(h) not in origin:
                        origin[id(h)] = (root, f"{g.file}:{cs.line}")
                        work.append(h)
    return findings


# --------------------------------------------------------------------------
# Per-file facts (frontend output + token rules input)
# --------------------------------------------------------------------------


@dataclass
class FileFacts:
    ir: TranslationIR
    hot_violations: list[tuple[str, int, str]]  # (file, line, what)
    seq_sites: list[tuple[str, int]]


def _find_seq_cst(rel: str, tokens) -> list[tuple[str, int]]:
    sites = []
    for i, t in enumerate(tokens):
        if t.text == "memory_order_seq_cst":
            sites.append((rel, t.line))
        elif (
            t.text == "seq_cst"
            and i >= 2
            and tokens[i - 1].text == "::"
            and tokens[i - 2].text == "memory_order"
        ):
            sites.append((rel, t.line))
    return sites


def gather_facts(paths: list[tuple[str, str]]) -> list[tuple[str, FileFacts]]:
    """Lexes and parses every (relpath, abspath) into its FileFacts."""
    out: list[tuple[str, FileFacts]] = []
    for rel, abspath in paths:
        with open(abspath, "r", encoding="utf-8") as f:
            tokens = cpp_lexer.lex(f.read())
        ir = TranslationIR()
        tokparse_frontend._FileParser(rel, tokens, ir).parse()
        hot = [(v.file, v.line, v.what) for v in hotpath_scan.scan(rel, tokens)]
        out.append((rel, FileFacts(ir, hot, _find_seq_cst(rel, tokens))))
    return out


def run_token_rules(facts: list[tuple[str, FileFacts]]) -> list[Finding]:
    """Whole-file token rules: no seq_cst anywhere, and hot-path purity
    (per-scope, per-line attribution)."""
    findings: list[Finding] = []
    for rel, f in facts:
        for vfile, vline, what in f.hot_violations:
            findings.append(Finding("hot-path", vfile, vline, "", what))
        for site_rel, line in f.seq_sites:
            findings.append(
                Finding(
                    "order",
                    site_rel,
                    line,
                    "",
                    "memory_order_seq_cst is forbidden (the park/wake "
                    "handshake orders with membarrier, src/base/locks.h)",
                )
            )
    return findings


# --------------------------------------------------------------------------
# Protocol IR export
# --------------------------------------------------------------------------


def build_protocol_ir(
    ir: TranslationIR, policy: Policy, file_prefix: str | None = PROTOCOL_IR_PREFIX
) -> dict:
    """Machine-readable protocol IR: for every function in the wait-free
    protocol files, the ordered list of shared-field accesses with their
    resolved policy field, access kind, effective memory order, the
    function's roles. Line numbers are deliberately
    omitted — the export must drift when the PROTOCOL changes (fields, op
    order, memory orders, roles), not when comments shift lines."""
    functions = []
    fns = sorted(ir.functions, key=lambda f: (f.file, f.line, f.qname))
    for fn in fns:
        if file_prefix is not None and not fn.file.startswith(file_prefix):
            continue
        accesses = []
        for seq, acc in enumerate(fn.accesses):
            fld, _ = policy.resolve(fn.klass, acc)
            if acc.op in CELL_WRITE_OPS:
                order = CELL_WRITE_OPS[acc.op]
            elif acc.op in CELL_READ_OPS:
                order = CELL_READ_OPS[acc.op]
            elif acc.op == ASSIGN_OP:
                order = "plain"
            else:
                order = acc.order if acc.order is not None else "seq_cst(defaulted)"
            accesses.append(
                {
                    "seq": seq,
                    "member": acc.member,
                    "op": acc.op,
                    "access": "write" if op_is_write(acc.op) else "read",
                    "order": order,
                    "field": fld.name if fld else None,
                    "kind": fld.kind if fld else None,
                    "writer": fld.writer if fld else None,
                }
            )
        roles = sorted(fn.roles | ir.decl_roles.get((fn.klass, fn.simple), set()))
        functions.append(
            {
                "function": fn.qname,
                "class": fn.klass,
                "file": fn.file,
                "roles": roles,
                "hot": fn.is_hot_root,
                "accesses": accesses,
            }
        )
    return {
        "version": 1,
        "generator": "tools/flipc_static_audit --emit-ir (tokparse frontend)",
        "functions": functions,
    }


def protocol_ir_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def collect_sources(root: str) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    for d in AUDITED_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(AUDITED_EXTS):
                    abspath = os.path.join(dirpath, name)
                    rel = os.path.relpath(abspath, root).replace(os.sep, "/")
                    out.append((rel, abspath))
    out.sort()
    return out


def merge_facts(facts: list[tuple[str, FileFacts]]) -> TranslationIR:
    ir = TranslationIR()
    for _rel, f in facts:
        ir.merge(f.ir)
    return ir


def audit_paths(
    paths: list[tuple[str, str]], policy: Policy
) -> tuple[list[Finding], TranslationIR]:
    facts = gather_facts(paths)
    ir = merge_facts(facts)
    findings = run_rules(ir, policy)
    findings.extend(run_closure_rules(ir))
    findings.extend(run_token_rules(facts))
    return sorted(set(findings), key=str), ir


def wait_site_census(ir: TranslationIR) -> dict:
    total = 0
    in_hot = 0
    for fn in ir.functions:
        for w in fn.wait_sites:
            total += 1
            if w.in_hot:
                in_hot += 1
    return {"total": total, "in_hot_scope": in_hot}


def write_json_report(
    path: str, findings: list[Finding], ir: TranslationIR, nfiles: int
) -> None:
    by_rule: dict[str, int] = defaultdict(int)
    for f in findings:
        by_rule[f.rule] += 1
    doc = {
        "version": 1,
        "files": nfiles,
        "ok": not findings,
        "findings": [f.to_json() for f in findings],
        "summary": {"total": len(findings), "by_rule": dict(sorted(by_rule.items()))},
        "unbounded_wait_sites": wait_site_census(ir),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


# --------------------------------------------------------------------------
# Self-test over seeded fixtures
# --------------------------------------------------------------------------

_EXPECT_RE = re.compile(r"AUDIT-EXPECT:\s*(.+?)\s*$", re.MULTILINE)

_EXPECTED_IR_NAME = "expected_ir.json"


def _collect_fixtures(fixture_dir: str):
    """Fixture units: single ``*.cc`` files, plus ``*_bad``/``*_clean``
    SUBDIRECTORIES whose .cc files are audited together as one multi-TU
    program (cross-TU rules need more than one file). A group directory may
    also carry an expected_ir.json: the protocol-IR export over the group
    is then byte-compared against it (the drift rule's fixture)."""
    units = []
    for name in sorted(os.listdir(fixture_dir)):
        path = os.path.join(fixture_dir, name)
        if os.path.isfile(path) and name.endswith(".cc"):
            units.append((name, [(name, path)], None))
        elif os.path.isdir(path) and (
            name.endswith("_bad") or name.endswith("_clean")
        ):
            files = [
                (f"{name}/{f}", os.path.join(path, f))
                for f in sorted(os.listdir(path))
                if f.endswith(".cc")
            ]
            expected_ir = os.path.join(path, _EXPECTED_IR_NAME)
            units.append(
                (name, files, expected_ir if os.path.exists(expected_ir) else None)
            )
    return units


def _fixture_ir_drift(
    files: list[tuple[str, str]], policy: Policy, expected_ir: str
) -> list[Finding]:
    """IR export over a fixture group vs its checked-in expectation."""
    got = protocol_ir_text(
        build_protocol_ir(merge_facts(gather_facts(files)), policy, None)
    )
    with open(expected_ir, "r", encoding="utf-8") as f:
        want = f.read()
    if got == want:
        return []
    return [
        Finding(
            "ir-drift",
            os.path.basename(os.path.dirname(expected_ir)),
            None,
            "",
            "protocol IR differs from expected_ir.json "
            "(regenerate with --emit-ir)",
        )
    ]


def run_selftest(fixture_dir: str) -> int:
    policy_path = os.path.join(fixture_dir, "mini_policy.json")
    if not os.path.exists(policy_path):
        print(f"selftest: missing {policy_path}", file=sys.stderr)
        return 2
    policy = load_policy(policy_path)
    units = _collect_fixtures(fixture_dir)
    if not units:
        print(f"selftest: no fixtures in {fixture_dir}", file=sys.stderr)
        return 2

    failures = 0
    for name, files, expected_ir in units:
        expects: list[str] = []
        for _rel, abspath in files:
            with open(abspath, "r", encoding="utf-8") as f:
                expects.extend(_EXPECT_RE.findall(f.read()))
        findings, _ir = audit_paths(files, policy)
        if expected_ir is not None:
            findings = findings + _fixture_ir_drift(files, policy, expected_ir)
        errors = [str(f) for f in findings]
        if "_clean" in name:
            if expects:
                print(f"selftest {name}: clean fixture carries AUDIT-EXPECT lines")
                failures += 1
            if errors:
                print(f"selftest {name}: expected no findings, got:")
                for e in errors:
                    print(f"  {e}")
                failures += 1
            continue
        if not expects:
            print(f"selftest {name}: bad fixture declares no AUDIT-EXPECT lines")
            failures += 1
            continue
        for want in expects:
            if not any(want in e for e in errors):
                print(f"selftest {name}: no finding matches AUDIT-EXPECT '{want}'")
                failures += 1
        for e in errors:
            if not any(want in e for want in expects):
                print(f"selftest {name}: unexpected finding: {e}")
                failures += 1
    if failures:
        print(f"selftest: {failures} failure(s)")
        return 1
    print(f"selftest: OK — {len(units)} fixture run(s)")
    return 0


# --------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="flipc_static_audit")
    ap.add_argument("--policy", help="ownership_policy.json path")
    ap.add_argument("--source-root", default=".", help="repository root")
    ap.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a machine-readable findings report",
    )
    ap.add_argument(
        "--emit-ir",
        metavar="PATH",
        default=None,
        help="write the src/waitfree protocol IR",
    )
    ap.add_argument(
        "--emit-schedules",
        metavar="PATH",
        default=None,
        help="generate tests/generated_model_schedules.h from the protocol IR",
    )
    ap.add_argument(
        "--selftest",
        metavar="FIXTURE_DIR",
        help="run the seeded-violation self-test instead of auditing the tree",
    )
    args = ap.parse_args(argv)

    if args.selftest:
        return run_selftest(args.selftest)

    if not args.policy:
        ap.error("--policy is required (or use --selftest)")
    try:
        policy = load_policy(args.policy)
    except (OSError, ValueError, KeyError) as exc:
        print(f"flipc_static_audit: cannot load {args.policy}: {exc}", file=sys.stderr)
        return 2
    root = os.path.abspath(args.source_root)
    paths = collect_sources(root)
    if not paths:
        print(f"flipc_static_audit: no sources under {root}", file=sys.stderr)
        return 2
    findings, ir = audit_paths(paths, policy)

    if args.emit_ir or args.emit_schedules:
        ir_doc = build_protocol_ir(ir, policy)
        if args.emit_ir:
            with open(args.emit_ir, "w", encoding="utf-8") as f:
                f.write(protocol_ir_text(ir_doc))
        if args.emit_schedules:
            try:
                header = schedule_gen.generate_header(ir_doc)
            except schedule_gen.ScheduleGenError as exc:
                print(f"flipc_static_audit: --emit-schedules: {exc}", file=sys.stderr)
                return 2
            with open(args.emit_schedules, "w", encoding="utf-8") as f:
                f.write(header)

    if args.json:
        write_json_report(args.json, findings, ir, len(paths))

    if findings:
        for f in findings:
            print(f)
        print(
            f"flipc_static_audit: {len(findings)} violation(s) "
            f"across {len(paths)} file(s)"
        )
        return 1
    print(
        f"flipc_static_audit: OK — {len(paths)} file(s), "
        f"{len(policy.fields)} policy field(s), 0 violations"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
