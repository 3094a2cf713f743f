"""The public API is pinned: adding or removing a name is a deliberate edit."""

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
