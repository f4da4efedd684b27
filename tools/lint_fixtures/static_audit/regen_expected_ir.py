#!/usr/bin/env python3
"""Regenerate expected_ir.json for the ir_drift_* fixture groups.

The selftest byte-compares the IR export over each group against
its checked-in expected_ir.json (the protocol-drift rule's fixture). After
deliberately changing a group's .cc files, rerun this script from the repo
root; ir_drift_bad's expectation is NOT regenerated — it is intentionally
stale so the drift finding fires.
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", ".."))

from flipc_static_audit import flipc_static_audit as audit  # noqa: E402

GROUPS = ["ir_drift_clean"]

policy = audit.load_policy(os.path.join(HERE, "mini_policy.json"))
for group in GROUPS:
    gdir = os.path.join(HERE, group)
    files = [
        (f"{group}/{f}", os.path.join(gdir, f))
        for f in sorted(os.listdir(gdir))
        if f.endswith(".cc")
    ]
    ir = audit.merge_facts(audit.gather_facts(files))
    text = audit.protocol_ir_text(audit.build_protocol_ir(ir, policy, None))
    out = os.path.join(gdir, "expected_ir.json")
    with open(out, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"wrote {out}")
