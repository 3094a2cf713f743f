"""The public API is pinned: adding or removing a name is a deliberate edit.
The transforms have one home: only ``_kernels`` reaches ``numpy.fft``, the
series it transforms is defined there once, and it builds no operand.  Every
count is read one way, and so is every real argument; only ``_kernels``
decides whether a number is finite."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import fracspec
from fracspec import (
    ArfimaSpec,
    MemoryEstimate,
    NoiseSpec,
    Series,
    estimate_memory,
    estimate_memory_from_periodogram,
    exact_difference,
    exact_kernel_window,
    exact_operator,
    gl_coefficients,
    gl_derivative_approx,
    gl_difference,
    gl_response_target,
    power_law_target,
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
    "exact_operator",
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


def _finiteness_lines(source):
    """Lines of ``source`` that reach ``math.isfinite``, as an attribute or
    an import, or name ``_RESULT_NOT_FINITE``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "isfinite" and isinstance(node.value, ast.Name)
                   and node.value.id == "math")
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "math" and any(a.name == "isfinite" for a in node.names)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines + _names(source, "_RESULT_NOT_FINITE"))


def test_finiteness_is_decided_only_in_kernels():
    # _kernels._real reads every real argument and _kernels._finite checks
    # every result; other modules check arrays with np.isfinite only
    package = Path(fracspec.__file__).resolve().parent
    deciding = sorted(path.name for path in package.glob("*.py")
                      if _finiteness_lines(path.read_text(encoding="utf-8")))
    assert deciding == ["_kernels.py"]
    # each form is caught, and numpy's array check is not
    for source in ("math.isfinite(x)", "from math import isfinite", "_RESULT_NOT_FINITE",
                   "_kernels._RESULT_NOT_FINITE", "from ._kernels import _RESULT_NOT_FINITE"):
        assert _finiteness_lines(source) == [1], source
    assert _finiteness_lines("np.isfinite(x).all()") == []


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


def _taps_callers(source):
    """Function of each ``Taps(...)`` or ``_kernels.Taps(...)`` call in
    ``source``."""
    return [function.name for function in ast.walk(ast.parse(source))
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) == "Taps"]


def test_convolve_has_one_window():
    # convolve returns the series' n samples and takes no output window; the
    # sample autocovariance builds no kernel, so spectral.py builds Taps only
    # to read an array as causal weights in operator_response
    package = Path(fracspec.__file__).resolve().parent
    kernels = ast.parse((package / "_kernels.py").read_text(encoding="utf-8"))
    convolve = next(node for node in kernels.body
                    if isinstance(node, ast.FunctionDef) and node.name == "convolve")
    assert ast.unparse(convolve.args) == "y: Series, w: Taps"
    spectral = (package / "spectral.py").read_text(encoding="utf-8")
    assert _taps_callers(spectral) == ["operator_response"]
    # each form is caught
    assert _taps_callers("def f(w):\n    return Taps(w)\n"
                          "def g(w):\n    return _kernels.Taps(w[::-1])") == ["f", "g"]


def _names(source, name):
    """Lines of ``source`` that name ``name``: as a name, an attribute or an
    imported alias."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))]


def _array_calls(source):
    """Class.method or function of each ``np.asarray`` or ``np.array`` call in
    ``source``."""
    functions = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            functions += [(f"{top.name}.{f.name}", f) for f in top.body
                          if isinstance(f, ast.FunctionDef)]
        elif isinstance(top, ast.FunctionDef):
            functions.append((top.name, top))
    return [name for name, function in functions for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("asarray", "array")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"]


def test_one_gl_integration_path():
    # simulate_arfima integrates through gl_difference, and _kernels coerces
    # no operand: only the operand types' own constructors copy arrays
    package = Path(fracspec.__file__).resolve().parent
    naming = sorted(path.name for path in package.glob("*.py")
                    if _names(path.read_text(encoding="utf-8"), "_gl_operator"))
    assert naming == ["glops.py"]
    kernels = (package / "_kernels.py").read_text(encoding="utf-8")
    assert sorted(_array_calls(kernels)) == ["Series.__post_init__", "Taps.__post_init__"]
    # each form is caught
    for source in ("_gl_operator(1, 2)", "glops._gl_operator", "from .glops import _gl_operator"):
        assert _names(source, "_gl_operator") == [1], source
    assert _array_calls("def f(x):\n    return np.asarray(x)\n"
                        "class C:\n    def g(self):\n        return np.array(self)") == ["f", "C.g"]


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
    "theoretical_acf.closed_form": ("max_lag", 5, lambda v: theoretical_acf(0.3, 1.0, v)),
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


# (argument, an integral value it takes, a call of it): every site that
# reads a real argument
_REAL_SITES = {
    "exact_kernel_window": ("kernel order", 1, lambda v: exact_kernel_window(v, 16).weights),
    "exact_operator": ("kernel order", 1, lambda v: exact_difference(
        _Y, exact_operator(v), "periodic").values),
    "gl_coefficients": ("order", 2, lambda v: gl_coefficients(v, 6)),
    "gl_difference": ("order", 1, lambda v: gl_difference(_Y, v, 6).values),
    "gl_derivative_approx.order": ("order", 1, lambda v: gl_derivative_approx(
        math.exp, v, 1.0, 0.1, 6)),
    "gl_derivative_approx.t": ("t", 1, lambda v: gl_derivative_approx(math.exp, 0.5, v, 0.1, 6)),
    "gl_derivative_approx.step": ("step", 1, lambda v: gl_derivative_approx(
        math.exp, 0.5, 1.0, v, 6)),
    "gl_response_target": ("order", 1, lambda v: gl_response_target(v, 1.0)),
    "power_law_target": ("order", 1, lambda v: power_law_target(v, 1.0)),
    "response_report.gl": ("order", 1, lambda v: response_report(v, "gl", 16, [1.0]).measured),
    "response_report.exact": ("kernel order", 1,
                              lambda v: response_report(v, "exact", 16, [1.0]).measured),
    "Series.step": ("series step", 2, lambda v: Series(_Y.values, step=v).times),
    "Series.start": ("series start", 3, lambda v: Series(_Y.values, start=v).times),
    "ArfimaSpec.d": ("d", 0, lambda v: simulate_arfima(
        ArfimaSpec(d=v, n=16, truncation=64), NoiseSpec()).values),
    "ArfimaSpec.ar": ("AR coefficients", 0, lambda v: simulate_arfima(
        ArfimaSpec(d=0.3, n=16, ar=(0.5, v), truncation=64), NoiseSpec()).values),
    "ArfimaSpec.ma": ("MA coefficients", 1, lambda v: simulate_arfima(
        ArfimaSpec(d=0.3, n=16, ma=(v,), truncation=64), NoiseSpec()).values),
    "NoiseSpec.sigma": ("sigma", 2, lambda v: white_noise(NoiseSpec(sigma=v), 8).values),
    "theoretical_acf.d": ("d", 0, lambda v: theoretical_acf(v, 1.0, 5, 100)),
    "theoretical_acf.sigma": ("sigma", 2, lambda v: theoretical_acf(0.3, v, 5, 10**5)),
    "theoretical_acf.closed_form.d": ("d", 0, lambda v: theoretical_acf(v, 1.0, 5)),
    "theoretical_acf.closed_form.sigma": ("sigma", 2, lambda v: theoretical_acf(0.3, v, 5)),
    "MemoryEstimate.d_hat": ("d_hat", 1, lambda v: MemoryEstimate(v, 0.1, 5).d_hat),
    "MemoryEstimate.std_err": ("std_err", 1, lambda v: MemoryEstimate(0.1, v, 5).std_err),
}


@pytest.mark.parametrize("site", sorted(_REAL_SITES))
def test_reals_are_finite_numbers_or_refused(site):
    # an int, a float and a numpy float give the same result; anything else
    # is refused by name, where a string was read by float(), raised
    # TypeError or was compared, and nan or inf reached a range check or
    # an overflow message
    name, value, call = _REAL_SITES[site]
    want = call(value)
    for same in (float(value), np.float64(value)):
        assert np.array_equal(call(same), want)
    for bad in (math.nan, math.inf, -math.inf, str(value)):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            call(bad)
