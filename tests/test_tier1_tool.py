"""``tools/tier1.py`` passes a run only if its one failure is criterion 7a
and nothing was skipped, xfailed or errored."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "tier1.py"
_SPEC = importlib.util.spec_from_file_location("tier1", _PATH)
tier1 = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tier1)

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
