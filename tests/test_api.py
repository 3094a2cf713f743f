"""The public API is pinned: adding or removing a name is a deliberate edit.
The transforms have one home: only ``_kernels`` reaches ``numpy.fft``, and
the series it transforms is defined there once."""

import ast
from pathlib import Path

import fracspec

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
