"""Run the tier-1 suite and judge it in one command.

    python tools/tier1.py

Runs ROADMAP's tier-1 command, ``python -m pytest -q
--continue-on-collection-errors`` from the repository root with ``src`` on
``PYTHONPATH``, with a JUnit XML report written to a temporary file.  It
exits 0 only if nothing failed to collect or errored, nothing was skipped
or xfailed, and the one failure is the acceptance check kept red on purpose
(README "Install and test").  It prints one line of counts, after pytest's
own output when the verdict is not that.  It deselects nothing and takes no
arguments.
"""

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_FAILURE = "tests/test_acceptance.py::test_criterion_7a_gl_matches_own_transform"


def _test_id(case) -> str:
    """pytest's id of a module-level test from its JUnit classname and name."""
    classname, name = case.get("classname"), case.get("name")
    return f"{classname.replace('.', '/')}.py::{name}" if classname else name


def verdict(junit_xml: str) -> tuple[bool, str]:
    """(whether the run is the expected one, its line of counts)."""
    counts = {"passed": 0, "failure": 0, "error": 0, "skipped": 0}
    failed = []
    for case in ET.fromstring(junit_xml).iter("testcase"):
        # a skip and an xfail are both <skipped>; a collection error is an <error>
        outcome = next((child.tag for child in case if child.tag in counts), "passed")
        counts[outcome] += 1
        if outcome == "failure":
            failed.append(_test_id(case))
    ok = failed == [EXPECTED_FAILURE] and counts["error"] == counts["skipped"] == 0
    line = (f"tier-1: {counts['passed']} passed, {counts['failure']} failed, "
            f"{counts['error']} errors, {counts['skipped']} skipped or xfailed: ")
    if ok:
        return True, line + "OK, the one failure is the intentional 7a"
    unexpected = sorted(set(failed) - {EXPECTED_FAILURE})
    return False, line + "NOT OK" + (f", unexpected failures {unexpected}" if unexpected else "")


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as scratch:
        report = Path(scratch) / "tier1.xml"
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             f"--junitxml={report}"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        # pytest exits 1 when tests failed; from 2 on it was interrupted or broke
        if run.returncode > 1 or not report.exists():
            ok, line = False, f"tier-1: pytest exited {run.returncode}: NOT OK"
        else:
            ok, line = verdict(report.read_text(encoding="utf-8"))
    if not ok:
        sys.stdout.write(run.stdout + run.stderr)
    print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
