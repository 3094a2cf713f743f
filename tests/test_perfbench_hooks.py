"""The names the benchmark harness in ``perfbench/`` reaches into the package by.

Its tracer wraps the functions listed in ``perfbench/tracer.py``'s
``TRACED`` by module and name, lib_batch's cold set-up clears
``exactops._window_cache``, and its workloads call public names of the
package.  A rename in the package would silently drop a traced layer, turn
the cold set-up warm or break a workload, so all three are checked here.
"""

import ast
import importlib
from pathlib import Path

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


def test_every_traced_function_exists():
    traced = _traced()
    assert traced
    missing = [
        (module, function)
        for module, function, _ in traced
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []


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
