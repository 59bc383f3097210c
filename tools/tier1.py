"""The tier-1 gate: run the whole suite and compare its failures with the known ones.

    python tools/tier1.py           # from any directory
    python -X dev tools/tier1.py    # the same suite in Python's development mode

It runs ``python -m pytest -q --continue-on-collection-errors`` from the root
of the checkout, with ``src`` first on ``PYTHONPATH``, and reads the outcome
of every test from a JUnit XML report. It exits 0 only when the failed tests
are exactly the three known acceptance failures and every module collected;
otherwise it prints the difference and exits 1. Nothing is deselected or
skipped, and a known failure that starts to pass fails the gate too, so the
list below has to be kept true.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The acceptance criteria the mechanism as specified does not meet (README, "Tests").
KNOWN_FAILURES = {
    "tests/test_acceptance.py::test_c05_decision_tree_correctness",
    "tests/test_acceptance.py::test_c06_sybil_trend",
    "tests/test_acceptance.py::test_c07_camouflage_trend",
}


def _node_id(case: ET.Element) -> str:
    """``tests/test_x.py::name`` from a JUnit test case's dotted class name;
    a module that failed to collect has no class name and is named alone."""
    classname, name = case.get("classname", ""), case.get("name", "")
    if not classname:
        return name.replace(".", "/") + ".py"
    return classname.replace(".", "/") + ".py::" + name


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    with tempfile.TemporaryDirectory() as scratch:
        report = Path(scratch) / "tier1.xml"
        command = [
            sys.executable, *dev, "-m", "pytest", "-q", "--continue-on-collection-errors",
            f"--junitxml={report}",
        ]
        code = subprocess.call(command, cwd=ROOT, env=env)
        if code not in (0, 1) or not report.exists():
            print(f"tier1: pytest exited {code} without a full report")
            return 1
        cases = list(ET.parse(report).getroot().iter("testcase"))
    failed = {_node_id(c) for c in cases if c.find("failure") is not None}
    errors = sorted(_node_id(c) for c in cases if c.find("error") is not None)
    ok = True
    for name in errors:
        print(f"tier1: error (collection or setup): {name}")
        ok = False
    for name in sorted(failed - KNOWN_FAILURES):
        print(f"tier1: new failure: {name}")
        ok = False
    for name in sorted(KNOWN_FAILURES - failed):
        print(f"tier1: known failure no longer fails: {name}")
        ok = False
    print(f"tier1: {len(cases)} test cases, {len(failed)} failed: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
