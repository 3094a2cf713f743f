"""fracspec: fractional differencing, exact fractional differences, and
spectral verification of their power-law frequency responses."""

from .arfima import (
    ArfimaSpec,
    MemoryEstimate,
    NoiseSpec,
    estimate_memory,
    estimate_memory_from_periodogram,
    simulate_arfima,
    theoretical_acf,
    white_noise,
)
from .errors import ConsistencyError, CsvParseError
from .exactops import (
    KernelWindow,
    exact_difference,
    exact_kernel_window,
    exact_operator,
)
from .glops import (
    Series,
    gl_coefficients,
    gl_derivative_approx,
    gl_difference,
)
from .spectral import (
    ResponseReport,
    SlopeFit,
    gl_response_target,
    loglog_slope_fit,
    operator_response,
    periodogram,
    power_law_target,
    response_report,
    sample_autocovariance,
)

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]
