"""The names the benchmark harness in ``perfbench/`` reaches into the package by.

Its tracer wraps the functions listed in ``perfbench/tracer.py``'s
``TRACED`` by module and name, lib_batch's cold set-up clears
``exactops._window_cache``, and its workloads call public names of the
package.  A rename in the package would silently drop a traced layer, turn
the cold set-up warm or break a workload, so all three are checked here.
The traced CLI itself is run as a subprocess, because its counters read the
shapes of what the package returns.  The harness's exact-kernel reference,
which judges the exact workloads, is itself judged by the library's
quadrature at the order and half-widths they run.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import fracspec
from fracspec import _kernels, exactops

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


@pytest.mark.parametrize("n", [300, 1000])
def test_scaling_series_arrays_reach_causal_apply(n):
    # perfbench/scaling.py times _kernels.causal_apply on two plain arrays of
    # n and n + 1 samples; they give the bits of the Series and Taps
    rng = np.random.default_rng(n)
    y, coeffs = rng.standard_normal(n), rng.standard_normal(n + 1)
    got = _kernels.causal_apply(y, coeffs)
    assert np.array_equal(got, _kernels.causal_apply(fracspec.Series(y), _kernels.Taps(coeffs)))


def _perfbench_oracles():
    """``perfbench/oracles.py`` as a module, run from its source so that
    nothing is written beside it."""
    path = PERFBENCH / "oracles.py"
    module = types.ModuleType("perfbench_oracles")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


# the half-widths of lib_batch and cli_exact, at 0.5, the one exact order
# the workloads run
@pytest.mark.parametrize("half_width", [256, 1024])
def test_benchmark_exact_kernel_reference_matches_quadrature(half_width):
    # from lag 12 the reference takes the asymptotic expansion production
    # takes, so it is judged by the library's quadrature, which shares
    # neither that expansion nor the reference's x = pi t^2 rule
    got = _perfbench_oracles().exact_kernel_weights(0.5, half_width)
    pos, neg = exactops._kernel_pairs(0.5, exactops._quadrature_integrals(0.5, half_width))
    want = np.concatenate((neg[:0:-1], pos))
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()


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
