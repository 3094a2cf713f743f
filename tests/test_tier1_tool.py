"""``tools/tier1.py`` passes a run only if its one failure is criterion 7a
and nothing was skipped, xfailed or errored; ``tools/loc.py`` counts code
lines without docstrings, comments or blank lines."""

import importlib.util
import re
import tomllib
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "tier1.py"
_SPEC = importlib.util.spec_from_file_location("tier1", _PATH)
tier1 = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tier1)
_LOC_SPEC = importlib.util.spec_from_file_location("loc", _ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_LOC_SPEC)
_LOC_SPEC.loader.exec_module(loc)

_PASS = '<testcase classname="tests.test_api" name="test_public_names" time="0.1" />'
_7A = ('<testcase classname="tests.test_acceptance" '
       'name="test_criterion_7a_gl_matches_own_transform" time="0.2">'
       '<failure message="assert False">trace</failure></testcase>')
_OTHER = ('<testcase classname="tests.test_glops" name="test_x[1]" time="0.1">'
          '<failure message="assert 1 == 2">trace</failure></testcase>')
_SKIP = ('<testcase classname="tests.test_cli" name="test_y" time="0.0">'
         '<skipped type="pytest.skip" message="no reason">skip</skipped></testcase>')
_XFAIL = ('<testcase classname="tests.test_cli" name="test_z" time="0.0">'
          '<skipped type="pytest.xfail" message="">xfail</skipped></testcase>')
_UNCOLLECTED = ('<testcase classname="" name="tests.test_broken" time="0.0">'
                '<error message="collection failure">ImportError</error></testcase>')


def _report(*cases):
    return ('<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">'
            + "".join(cases) + "</testsuite></testsuites>")


def test_the_intentional_7a_alone_passes():
    ok, line = tier1.verdict(_report(_PASS, _7A, _PASS))
    assert ok
    assert line.startswith("tier-1: 2 passed, 1 failed, 0 errors, 0 skipped or xfailed: OK")


def test_another_failure_fails():
    ok, line = tier1.verdict(_report(_PASS, _7A, _OTHER))
    assert not ok
    assert "1 passed, 2 failed" in line and "tests/test_glops.py::test_x[1]" in line


def test_a_skip_xfail_or_collection_error_fails():
    for extra in (_SKIP, _XFAIL, _UNCOLLECTED):
        ok, line = tier1.verdict(_report(_PASS, _7A, extra))
        assert not ok, extra
        assert "NOT OK" in line
    # and 7a must fail: a run without it is not the expected one
    assert not tier1.verdict(_report(_PASS))[0]


def test_the_declared_python_floor_is_the_one_ci_runs():
    # on an older interpreter a test of this suite cannot run, and a skip
    # fails the verdict
    with open(_ROOT / "pyproject.toml", "rb") as fh:
        floor = tomllib.load(fh)["project"]["requires-python"]
    workflow = (_ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    versions = re.findall(r'python-version:\s*"([^"]+)"', workflow)
    assert versions and {f">={v}" for v in versions} == {floor}


_SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts as its line of code

# a comment line


class Grid:
    """A class docstring."""

    def size(self, n):
        """A function docstring."""
        total = (n
                 + 1)
        return "a string" + """ that is
        no docstring"""
'''


def test_loc_counts_code_lines_only():
    # the import, the class and def lines, the two lines of the split
    # statement and the two lines of the return; not the docstrings, the
    # comment line or the blank lines
    assert loc.code_lines(_SOURCE) == 7
    assert loc.code_lines("") == 0
