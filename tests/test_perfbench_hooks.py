"""The names the benchmark harness in ``perfbench/`` reaches into the package by.

Its tracer wraps the functions listed in ``perfbench/tracer.py``'s
``TRACED`` by module and name, and lib_batch's cold set-up clears
``exactops._window_cache``.  A rename in the package would silently drop a
traced layer or turn the cold set-up warm, so both are checked here.
"""

import ast
import importlib
from pathlib import Path

from fracspec import exactops

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_window_cache_can_be_cleared():
    assert callable(exactops._window_cache.clear)
