"""Discrete Fourier machinery: spectra, periodograms, operator frequency
responses, analytic power-law targets, autocovariance, and log-log slope
fits.

Transform convention is fixed to negative exponent throughout:
yhat(w) = sum_t y_t exp(-i w t T).  Under it the measured response of a lag
window is H(wT) = sum_m K(m) exp(-i wT m), the Grunwald-Letnikov target is
(1 - exp(-i wT))^alpha, and the exact-difference target is
(i wT)^alpha = (wT)^alpha exp(+i pi alpha / 2) on the principal branch
(validated against the alpha=1 closed-form kernel, whose response is the
sawtooth Fourier series of +i wT).
"""

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .exactops import KernelWindow, exact_kernel_window
from .glops import GLCoefficients, Series, gl_coefficients
from .specfun import cospi, sinpi

__all__ = [
    "Spectrum",
    "ResponseSample",
    "ResponseReport",
    "SlopeFit",
    "dft",
    "inverse_dft",
    "periodogram",
    "operator_response",
    "gl_response_target",
    "power_law_target",
    "response_report",
    "sample_autocovariance",
    "loglog_slope_fit",
    "REL_ERROR_FLOOR",
]

REL_ERROR_FLOOR = 1e-15

# direct exact-length transform below this size; zero-pad to a power of two above
_DIRECT_LIMIT = 64


@dataclass(frozen=True, eq=False)
class Spectrum:
    """DFT of a series under the fixed convention yhat_j = sum_t y_t e^{-2 pi i j t / n}.

    ``n`` is the transform length (padded when the input exceeded the direct
    limit); ``data_length`` is the original sample count.  frequencies[j] =
    2 pi j / (n * step) in radians per time unit.
    """

    frequencies: np.ndarray
    values: np.ndarray
    n: int
    step: float
    start: float
    data_length: int


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    stderr: float


@dataclass(frozen=True)
class ResponseSample:
    """Measured frequency response of a lag window at one dimensionless wT,
    optionally paired with an analytic target."""

    omega_T: float
    measured: complex
    target: complex | None = None
    abs_error: float | None = None
    rel_error: float | None = None


@dataclass(frozen=True, eq=False)
class ResponseReport:
    """Response samples against the power-law target; for the GL family the
    samples against the closed-form GL target are reported alongside."""

    order: float
    family: str
    truncation: int
    samples: list[ResponseSample]
    gl_samples: list[ResponseSample] | None = None


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def dft(y: Series) -> Spectrum:
    """Transform a series; lengths beyond 64 are zero-padded to a power of two.

    Padding is recorded in the returned Spectrum so downstream frequency
    grids use the padded length.
    """
    n = len(y)
    n_fft = n if n <= _DIRECT_LIMIT else _next_pow2(n)
    values = np.fft.fft(y.values, n_fft)
    freqs = 2.0 * math.pi * np.arange(n_fft) / (n_fft * y.step)
    return Spectrum(freqs, values, n_fft, y.step, y.start, n)


def inverse_dft(spectrum: Spectrum) -> Series:
    """Invert :func:`dft`, dropping padding and the negligible imaginary part."""
    values = np.fft.ifft(spectrum.values).real[: spectrum.data_length]
    return Series(values, spectrum.step, spectrum.start)


def periodogram(y: Series) -> tuple[np.ndarray, np.ndarray]:
    """Raw periodogram (omega_j, S_j), S_j = |yhat_j|^2 / n, j = 1..n//2.

    The series mean is removed before transforming so a level offset cannot
    contaminate the low-frequency bins; zero frequency is excluded.
    Normalization is 1/n (transform length), which shifts log-log intercepts
    only, never slopes.
    """
    if len(y) < 4:
        raise ValueError("periodogram requires at least 4 samples")
    centered = y.with_values(y.values - y.values.mean())
    spectrum = dft(centered)
    half = spectrum.n // 2
    omega = spectrum.frequencies[1 : half + 1]
    power = np.abs(spectrum.values[1 : half + 1]) ** 2 / spectrum.n
    return omega, power


def _window_arrays(weights) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(weights, KernelWindow):
        return weights.offsets.astype(np.float64), weights.weights
    if isinstance(weights, GLCoefficients):
        w = weights.coefficients
        return np.arange(w.size, dtype=np.float64), w
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a one-dimensional coefficient window")
    return np.arange(w.size, dtype=np.float64), w


def _validate_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a one-dimensional sequence of omega*T values")
    if not ((g > 0.0).all() and (g <= math.pi).all()):
        raise ValueError("grid values must lie in (0, pi]")
    return g


def _response_values(offsets: np.ndarray, w: np.ndarray, grid: np.ndarray) -> np.ndarray:
    # direct summation; evaluated in frequency blocks to bound memory
    out = np.empty(grid.size, dtype=np.complex128)
    block = max(1, int(2**22 / max(w.size, 1)))
    for i in range(0, grid.size, block):
        g = grid[i : i + block]
        out[i : i + block] = np.exp(-1j * np.outer(g, offsets)) @ w
    return out


def operator_response(weights, grid: Sequence[float]) -> list[ResponseSample]:
    """Measured response H(wT) = sum_m K(m) e^{-i wT m} by direct summation.

    ``weights`` may be a two-sided :class:`KernelWindow`, causal
    :class:`GLCoefficients`, or a plain causal coefficient array.  Targets
    are left unfilled; see :func:`response_report`.
    """
    offsets, w = _window_arrays(weights)
    grid = _validate_grid(grid)
    values = _response_values(offsets, w, grid)
    return [ResponseSample(float(x), complex(h)) for x, h in zip(grid, values)]


def gl_response_target(order: float, omega_T: float) -> complex:
    """(1 - exp(-i wT))^order on the principal branch, 0 < wT <= pi.

    Magnitude (2 sin(wT/2))^order; tends to the power-law target as wT -> 0.
    """
    if not (0.0 < omega_T <= math.pi):
        raise ValueError("omega_T must lie in (0, pi]")
    return (1.0 - cmath.exp(-1j * omega_T)) ** order


def power_law_target(order: float, omega_T: float, conjugate: bool = False) -> complex:
    """(i wT)^order on the principal branch: magnitude (wT)^order, phase
    +pi*order/2 under the adopted negative-exponent convention.

    ``conjugate=True`` returns the opposite-convention value with phase
    -pi*order/2.
    """
    if not (omega_T > 0.0):
        raise ValueError("omega_T must be positive")
    mag = omega_T**order
    phase_cos = cospi(order / 2.0)
    phase_sin = sinpi(order / 2.0)
    if conjugate:
        phase_sin = -phase_sin
    return complex(mag * phase_cos, mag * phase_sin)


def _fill_targets(
    measured: list[ResponseSample], targets: list[complex]
) -> list[ResponseSample]:
    out = []
    for sample, target in zip(measured, targets):
        abs_err = abs(sample.measured - target)
        rel_err = abs_err / max(abs(target), REL_ERROR_FLOOR)
        out.append(
            ResponseSample(sample.omega_T, sample.measured, target, abs_err, rel_err)
        )
    return out


def response_report(
    order: float, family: str, truncation: int, grid: Sequence[float]
) -> ResponseReport:
    """Measured response of one operator family against its analytic targets.

    ``family="gl"`` measures the causal window of (1-L)^order truncated at
    ``truncation`` lags, against the power-law target and additionally
    against the closed-form GL target.  ``family="exact"`` measures the
    two-sided kernel window of half-width ``truncation`` against the
    power-law target, which it should match on the interior of (0, pi).
    """
    grid = _validate_grid(grid)
    if family == "gl":
        weights = gl_coefficients(order, truncation)
    elif family == "exact":
        weights = exact_kernel_window(order, truncation)
    else:
        raise ValueError(f"family must be 'gl' or 'exact', got {family!r}")
    measured = operator_response(weights, grid)
    power_targets = [power_law_target(order, x) for x in grid]
    samples = _fill_targets(measured, power_targets)
    gl_samples = None
    if family == "gl":
        gl_targets = [gl_response_target(order, x) for x in grid]
        gl_samples = _fill_targets(measured, gl_targets)
    return ResponseReport(order, family, int(truncation), samples, gl_samples)


def sample_autocovariance(y: Series, max_lag: int) -> np.ndarray:
    """Biased-normalization sample autocovariance for lags 0..max_lag.

    rho(k) = (1/n) sum_t (y_t - ybar)(y_{t+k} - ybar).
    """
    n = len(y)
    max_lag = int(max_lag)
    if not (0 <= max_lag < n):
        raise ValueError("max_lag must satisfy 0 <= max_lag < len(y)")
    centered = y.values - y.values.mean()
    return _kernels.convolve(centered, centered[::-1])[n - 1 : n + max_lag] / n


def loglog_slope_fit(xs, ys) -> SlopeFit:
    """Least-squares line through (log x, log y); stderr is for the slope."""
    x = np.asarray(xs, dtype=np.float64)
    s = np.asarray(ys, dtype=np.float64)
    if x.size != s.size or x.size < 3:
        raise ValueError("need at least 3 (x, y) pairs")
    if not ((x > 0.0).all() and (s > 0.0).all()):
        raise ValueError("log-log fit requires strictly positive values")
    lx = np.log(x)
    ly = np.log(s)
    xc = lx - lx.mean()
    sxx = float(np.dot(xc, xc))
    if sxx == 0.0:
        raise ValueError("x values must not be all equal")
    slope = float(np.dot(xc, ly) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    stderr = math.sqrt(float(np.dot(resid, resid)) / (x.size - 2) / sxx)
    return SlopeFit(slope, intercept, stderr)
