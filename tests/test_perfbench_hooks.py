"""The names the benchmark harness in ``perfbench/`` reaches into the package by.

Its tracer wraps the functions listed in ``perfbench/tracer.py``'s
``TRACED`` by module and name, lib_batch's cold set-up clears
``exactops._window_cache``, and its workloads call public names of the
package.  A rename in the package would silently drop a traced layer, turn
the cold set-up warm or break a workload, so all three are checked here.
The traced CLI itself is run as a subprocess, because its counters read the
shapes of what the package returns.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracspec
from fracspec import exactops

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _traced():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


# TRACED entries whose module left the package.  ``Tracer.install`` skips a
# module that is not loaded, so such an entry is safe exactly while its
# module cannot be imported; a module that came back without the function
# would make every traced run raise.
_RETIRED = {("fracspec.specfun", "hyp1f2")}


def test_every_traced_function_exists():
    traced = _traced()
    assert traced
    missing = [
        (module, function)
        for module, function, _ in traced
        if (module, function) not in _RETIRED
        and not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []
    for module, _ in _RETIRED:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


def _attributes_of(tree, name):
    """Attributes read off the variable ``name`` anywhere in ``tree``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == name
    }


def _package_names_called():
    """``fracspec.X`` in cliwork's oracles and ``f.X`` in lib_batch's op chain."""
    names = _attributes_of(ast.parse((PERFBENCH / "cliwork.py").read_text()), "fracspec")
    libwork = ast.parse((PERFBENCH / "libwork.py").read_text())
    chain = [n for n in libwork.body if isinstance(n, ast.FunctionDef) and n.name == "_chain"]
    assert chain, "perfbench/libwork.py defines no _chain"
    return names | _attributes_of(chain[0], "f")


def test_every_package_name_the_benchmark_calls_is_public():
    names = _package_names_called()
    assert {"NoiseSpec", "white_noise", "gl_difference", "exact_kernel_window"} <= names
    missing = sorted(n for n in names if n not in fracspec.__all__ or not hasattr(fracspec, n))
    assert missing == []


def test_window_cache_can_be_cleared():
    assert callable(exactops._window_cache.clear)


def _traced_run(tmp_path, argv):
    """Counters of one ``perfbench/traced_cli.py`` run, the path the benchmark
    takes at ``--trace 1``; ``-B`` keeps bytecode out of ``perfbench/``."""
    spans = tmp_path / "spans.json"
    path = [str(PERFBENCH.parent / "src"), *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "traced_cli.py"), str(spans), *argv],
        cwd=tmp_path, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(spans.read_text())["counters"]


def _series_csv(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("t,value\n" + "".join(f"{t},{(t * 7919) % 13 - 6}\n" for t in range(256)))
    return str(path)


def test_traced_exact_difference_counts_its_layers(tmp_path):
    counters = _traced_run(tmp_path, [
        "difference", "--input", _series_csv(tmp_path), "--order", "0.5",
        "--family", "exact", "--half-width", "64", "-o", str(tmp_path / "z.csv"),
    ])
    assert counters["cli.rows_parsed"] > 0
    assert counters["exactops.window_cold_calls"] == 1
    assert counters["kernels.two_sided_apply_zero_macs"] > 0


def test_traced_estimate_counts_rows(tmp_path):
    counters = _traced_run(tmp_path, [
        "estimate", "--input", _series_csv(tmp_path), "-o", str(tmp_path / "e.csv"),
    ])
    assert counters["cli.rows_parsed"] > 0


def test_traced_gl_difference_counts_its_taps(tmp_path):
    # the tracer reads len() of causal_apply's second argument, the GL operator
    counters = _traced_run(tmp_path, [
        "difference", "--input", _series_csv(tmp_path), "--order", "0.4",
        "--truncation", "300", "-o", str(tmp_path / "z.csv"),
    ])
    assert counters["kernels.causal_apply_macs"] == 256 * min(256, 301)
