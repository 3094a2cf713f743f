"""The public API is pinned: adding or removing a name is a deliberate edit.
The transforms have one home: only ``_kernels`` reaches ``numpy.fft``, the
series it transforms is defined there once, and it builds no operand.  Every
count is read one way."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import fracspec
from fracspec import (
    ArfimaSpec,
    NoiseSpec,
    estimate_memory,
    estimate_memory_from_periodogram,
    exact_kernel_window,
    gl_coefficients,
    gl_derivative_approx,
    gl_difference,
    response_report,
    sample_autocovariance,
    simulate_arfima,
    theoretical_acf,
    white_noise,
)

PUBLIC = {
    "ArfimaSpec",
    "ConsistencyError",
    "CsvParseError",
    "KernelWindow",
    "MemoryEstimate",
    "NoiseSpec",
    "ResponseReport",
    "Series",
    "SlopeFit",
    "estimate_memory",
    "estimate_memory_from_periodogram",
    "exact_difference",
    "exact_kernel_window",
    "gl_coefficients",
    "gl_derivative_approx",
    "gl_difference",
    "gl_response_target",
    "loglog_slope_fit",
    "operator_response",
    "periodogram",
    "power_law_target",
    "response_report",
    "sample_autocovariance",
    "simulate_arfima",
    "theoretical_acf",
    "white_noise",
}


def test_public_names_are_exactly_the_pinned_set():
    assert sorted(fracspec.__all__) == sorted(PUBLIC | {"__version__"})
    assert all(hasattr(fracspec, name) for name in fracspec.__all__)


def _numpy_fft_lines(source):
    """Lines of ``source`` that reach ``numpy.fft``: ``np.fft`` or
    ``numpy.fft`` as an attribute, or an import of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "fft" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.fft") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.fft") or (
                module == "numpy" and any(alias.name == "fft" for alias in node.names))
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_numpy_fft_is_reached_only_from_kernels():
    package = Path(fracspec.__file__).resolve().parent
    reaching = sorted(path.name for path in package.glob("*.py")
                      if _numpy_fft_lines(path.read_text(encoding="utf-8")))
    assert reaching == ["_kernels.py"]
    # each form of the reference is caught
    for source in ("np.fft.rfft(y)", "import numpy.fft", "from numpy import fft",
                   "from numpy.fft import irfft"):
        assert _numpy_fft_lines(source) == [1], source


def test_series_is_defined_once():
    assert fracspec.Series is fracspec.glops.Series is fracspec._kernels.Series


# calls a function body in ``_kernels`` may make, by function: the series
# an operator returns, and the benchmark's arrays (perfbench/scaling.py)
_KERNELS_OPERAND_CALLS = {
    "with_values": ["Series"],
    "causal_apply": ["isinstance", "Series", "Taps"],
}


def _operand_calls(source):
    """(function, callee) for each call of ``isinstance``, ``Taps``,
    ``KernelWindow`` or ``Series`` in a function body of ``source``."""
    calls = []
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, ast.FunctionDef):
            calls += [(function.name, node.func.id) for node in ast.walk(function)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in ("isinstance", "Taps", "KernelWindow", "Series")]
    return calls


def test_kernels_build_no_operand():
    # each product takes a Series and a kernel that its caller built
    source = (Path(fracspec.__file__).resolve().parent / "_kernels.py").read_text(
        encoding="utf-8")
    calls = {}
    for function, callee in _operand_calls(source):
        calls.setdefault(function, []).append(callee)
    assert calls == _KERNELS_OPERAND_CALLS
    assert _operand_calls("def f(y):\n    return Series(KernelWindow(isinstance(y, Taps)))") == [
        ("f", "Series"), ("f", "KernelWindow"), ("f", "isinstance")]


_Y = white_noise(NoiseSpec(seed=4), 64)
_OMEGA = np.arange(1.0, 11.0)

# (argument, a count it takes, a call of it): every site that reads a count
_COUNT_SITES = {
    "ArfimaSpec.n": ("n", 16, lambda v: simulate_arfima(
        ArfimaSpec(d=0.3, n=v, truncation=64), NoiseSpec()).values),
    "ArfimaSpec.burn_in": ("burn_in", 4, lambda v: simulate_arfima(
        ArfimaSpec(d=0.3, n=16, burn_in=v, truncation=64), NoiseSpec()).values),
    "ArfimaSpec.truncation": ("truncation", 8, lambda v: simulate_arfima(
        ArfimaSpec(d=0.3, n=16, truncation=v), NoiseSpec()).values),
    "NoiseSpec.seed": ("seed", 3, lambda v: white_noise(NoiseSpec(seed=v), 8).values),
    "white_noise": ("n", 5, lambda v: white_noise(NoiseSpec(), v).values),
    "gl_coefficients": ("truncation", 6, lambda v: gl_coefficients(0.5, v)),
    "gl_difference": ("truncation", 6, lambda v: gl_difference(_Y, 0.5, v).values),
    "gl_derivative_approx": ("truncation", 6,
                             lambda v: gl_derivative_approx(math.exp, 0.5, 1.0, 0.1, v)),
    "exact_kernel_window": ("half_width", 7, lambda v: exact_kernel_window(0.5, v).weights),
    "response_report.gl": ("truncation", 16,
                           lambda v: response_report(0.5, "gl", v, [1.0]).measured),
    "response_report.exact": ("half_width", 16,
                              lambda v: response_report(0.5, "exact", v, [1.0]).measured),
    "theoretical_acf.max_lag": ("max_lag", 5, lambda v: theoretical_acf(0.3, 1.0, v, 10**5)),
    "theoretical_acf.truncation": ("truncation", 10**5,
                                   lambda v: theoretical_acf(0.3, 1.0, 5, v)),
    "sample_autocovariance": ("max_lag", 5, lambda v: sample_autocovariance(_Y, v)),
    "estimate_memory": ("bandwidth", 8, lambda v: estimate_memory(_Y, v).d_hat),
    "estimate_memory_from_periodogram": ("bandwidth", 5, lambda v: (
        estimate_memory_from_periodogram(_OMEGA, _OMEGA**-0.6, v).d_hat)),
}


@pytest.mark.parametrize("site", sorted(_COUNT_SITES))
def test_counts_are_integers_or_refused(site):
    # an int, a numpy integer and an integral float give the same result;
    # anything else is refused by name, where it was rounded, truncated,
    # accepted as it was or failed on a slice
    name, count, call = _COUNT_SITES[site]
    want = call(count)
    for same in (np.int64(count), float(count), np.float64(count)):
        assert np.array_equal(call(same), want)
    for bad in (count + 0.5, np.float64(count - 0.3), math.inf, math.nan, str(count)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call(bad)

