"""Discrete Fourier machinery: periodograms, operator frequency responses,
analytic power-law targets, autocovariance, and log-log slope fits.

The periodogram and the sample autocovariance both read a series' memoised
centred transform, ``Series.rfft``: the autocovariance is the inverse
transform of its power (Wiener-Khinchin), so a series whose periodogram
length n_fft is also the 5-smooth length from n + max_lag is transformed
once for both.

Transform convention is fixed to negative exponent throughout:
yhat(w) = sum_t y_t exp(-i w t T).  Under it the measured response of a lag
window is H(wT) = sum_m K(m) exp(-i wT m), the Grunwald-Letnikov target is
(1 - exp(-i wT))^alpha, and the exact-difference target is
(i wT)^alpha = (wT)^alpha exp(+i pi alpha / 2) on the principal branch
(validated against the alpha=1 closed-form kernel, whose response is the
sawtooth Fourier series of +i wT).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from ._kernels import Series, _finite, _read_only, _real, _whole
from .exactops import cospi, exact_kernel_window, sinpi
from .glops import gl_coefficients

__all__ = [
    "ResponseReport",
    "SlopeFit",
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

# exact-length transform up to this size; zero-pad to a power of two above
_DIRECT_LIMIT = 64


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    stderr: float


@dataclass(frozen=True, eq=False)
class ResponseReport:
    """Measured response against the power-law target, one array entry per
    grid point.

    ``abs_error`` is |measured - target| and ``rel_error`` divides it by
    max(|target|, REL_ERROR_FLOOR).  For the GL family the same columns
    against the closed-form GL target are reported alongside as
    ``gl_target``, ``gl_abs_error`` and ``gl_rel_error``; for the exact
    family they are None.
    """

    omega_T: np.ndarray
    measured: np.ndarray
    target: np.ndarray
    abs_error: np.ndarray
    rel_error: np.ndarray
    gl_target: np.ndarray | None = None
    gl_abs_error: np.ndarray | None = None
    gl_rel_error: np.ndarray | None = None


def _fft_size(n: int) -> int:
    """Transform length of an n-sample series: n up to 64, else the next
    power of two."""
    return n if n <= _DIRECT_LIMIT else 1 << (n - 1).bit_length()


def periodogram(y: Series) -> tuple[np.ndarray, np.ndarray]:
    """Raw periodogram (omega_j, S_j), S_j = |yhat_j|^2 / n_fft, j = 1..n_fft//2.

    The series mean is removed before transforming so a level offset cannot
    contaminate the low-frequency bins; zero frequency is excluded.  The
    transform is a real FFT of length n_fft: the sample count n up to 64,
    zero-padded to the next power of two above, with omega_j =
    2 pi j / (n_fft * step).  The bins are those of the series' memoised
    ``Series.rfft(n_fft)``, the transform of the mean-removed values; at
    n_fft = n it is the one periodic exact differences read.
    Normalization is 1/n_fft, which shifts log-log intercepts only, never
    slopes.  ValueError if an ordinate overflows.
    """
    if len(y) < 4:
        raise ValueError("periodogram requires at least 4 samples")
    n_fft = _fft_size(len(y))
    omega = _frequencies(n_fft, n_fft // 2, y.step)
    amplitude = _lowest_amplitudes(y, n_fft, n_fft // 2)
    with np.errstate(over="ignore"):
        power = amplitude**2 / n_fft
    _finite(omega, power)
    return omega, power


def _frequencies(n_fft: int, count: int, step: float) -> np.ndarray:
    """omega_j = 2 pi j / (n_fft * step) of :func:`periodogram`, j = 1..count."""
    return 2.0 * math.pi * np.arange(1, count + 1) / (n_fft * step)


def _lowest_amplitudes(y: Series, n_fft: int, count: int) -> np.ndarray:
    """The amplitudes |yhat_j| behind :func:`periodogram`'s S_j =
    |yhat_j|^2 / n_fft, for j = 1..count only; ValueError if the centring or
    an amplitude overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        amplitude = np.abs(y.rfft(n_fft)[1 : count + 1])
    _finite(amplitude)
    return amplitude


def _validate_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a one-dimensional sequence of omega*T values")
    if not ((g > 0.0).all() and (g <= math.pi).all()):
        raise ValueError("grid values must lie in (0, pi]")
    return g


# (frequency, lag) pairs the direct sum evaluates per block; the folded
# route's length-2N buffer is held to the same size
_BLOCK = 2**22

# a grid value counts as k pi / N when it is within this relative distance;
# the grids j pi / G and np.linspace(a pi, b pi, n) were measured within 2.3 eps
_FOLD_TOL = 16 * np.finfo(np.float64).eps


def _direct_response(kernel: _kernels.Taps, grid: np.ndarray) -> np.ndarray:
    """sum_m K(m) e^{-i wT m} at every grid point, O(G M); evaluated in
    frequency blocks to bound memory."""
    lags, w = kernel.lags, kernel.weights
    out = np.empty(grid.size, dtype=np.complex128)
    block = max(1, _BLOCK // w.size)
    for i in range(0, grid.size, block):
        g = grid[i : i + block]
        out[i : i + block] = np.exp(-1j * np.outer(g, lags)) @ w
    return out


def _fold_grid(grid: np.ndarray, cost: int) -> tuple[int, np.ndarray] | None:
    """(N, k) with grid = k pi / N for integers k, where N = round(pi / g)
    for the least positive gap g of the sorted values, the first counting
    from 0; None unless those k exist and 2N is at most ``cost`` and
    ``_BLOCK``.  No smaller N holds: a gap of pi / N between multiples of
    pi / N' forces N' >= N."""
    limit = int(min(cost, _BLOCK)) // 2
    gaps = np.diff(np.sort(grid), prepend=0.0)
    g = gaps[gaps > 0.0].min()
    # no gap below pi / (limit + 1) folds, and pi over a subnormal gap is inf
    if g * (limit + 1) < math.pi:
        return None
    n = round(math.pi / g)
    x = grid / math.pi * n
    k = np.rint(x)
    if n > limit or (np.abs(x - k) > _FOLD_TOL * k).any():
        return None
    return n, k.astype(np.int64)


def operator_response(weights, grid: Sequence[float]) -> np.ndarray:
    """Measured response H(wT) = sum_m K(m) e^{-i wT m} at each grid point.

    ``weights`` is a kernel of ``_kernels``, read at its own lags: a
    two-sided :class:`KernelWindow` or causal ``_kernels.Taps``; an array,
    such as :func:`gl_coefficients` returns, is taken as causal.  With N =
    round(pi / g) for the grid's least gap g, a grid of multiples k pi / N,
    2N no larger than either the grid size times the window length or 2^22,
    reads bins k of the kernel's memoised ``spectrum(2N)``, its lags folded
    mod 2N, in O(M + N log N); any other grid, such as [37 pi / 256], is
    summed directly, O(G M).  Targets are computed by :func:`response_report`.
    ValueError if a response value is not finite.
    """
    kernel = weights if isinstance(weights, _kernels.Taps) else _kernels.Taps(weights)
    grid = _validate_grid(grid)
    fold = _fold_grid(grid, grid.size * len(kernel))
    with np.errstate(over="ignore", invalid="ignore"):
        if fold is None:
            response = _direct_response(kernel, grid)
        else:
            # e^{-i pi k m / N} depends on the lag m only mod 2N
            n, k = fold
            response = kernel.spectrum(2 * n)[k]
    _finite(response)
    return response


def _polar(mag, phase_cos, phase_sin) -> complex | np.ndarray:
    out = np.empty(np.shape(mag), dtype=np.complex128)
    out.real = mag * phase_cos
    out.imag = mag * phase_sin
    return complex(out) if out.ndim == 0 else out


def gl_response_target(order: float, omega_T) -> complex | np.ndarray:
    """(1 - exp(-i wT))^order on the principal branch, 0 < wT <= pi.

    Evaluated in polar form, (2 sin(wT/2))^order e^{i order (pi - wT)/2};
    tends to the power-law target as wT -> 0.  ``omega_T`` may be a number
    (complex result) or an array (complex array).  ValueError if ``order`` is
    not finite.
    """
    order = _real(order, "order")
    x = np.asarray(omega_T, dtype=np.float64)
    if not ((x > 0.0) & (x <= math.pi)).all():
        raise ValueError("omega_T must lie in (0, pi]")
    phase = order * (math.pi - x) / 2.0
    return _polar((2.0 * np.sin(x / 2.0)) ** order, np.cos(phase), np.sin(phase))


def power_law_target(order: float, omega_T) -> complex | np.ndarray:
    """(i wT)^order on the principal branch: magnitude (wT)^order, phase
    +pi*order/2 under the adopted negative-exponent convention.

    ``omega_T`` may be a number (complex result) or an array (complex array).
    ValueError if ``order`` is not finite.
    """
    order = _real(order, "order")
    x = np.asarray(omega_T, dtype=np.float64)
    if not ((x > 0.0) & (x < math.inf)).all():
        raise ValueError("omega_T must be positive and finite")
    return _polar(x**order, cospi(order / 2.0), sinpi(order / 2.0))


def _error_columns(measured: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, ...]:
    abs_error = np.abs(measured - target)
    return target, abs_error, abs_error / np.maximum(np.abs(target), REL_ERROR_FLOOR)


def response_report(
    order: float, family: str, truncation: int, grid: Sequence[float]
) -> ResponseReport:
    """Measured response of one operator family against its analytic targets.

    ``family="gl"`` measures the causal window of (1-L)^order truncated at
    ``truncation`` lags, against the power-law target and additionally
    against the closed-form GL target.  ``family="exact"`` measures the
    two-sided kernel window of half-width ``truncation`` against the
    power-law target, which it should match on the interior of (0, pi).
    Raises ValueError when any reported value is not finite.
    """
    grid = _validate_grid(grid)
    if family == "gl":
        weights = gl_coefficients(order, truncation)
    elif family == "exact":
        weights = exact_kernel_window(order, truncation)
    else:
        raise ValueError(f"family must be 'gl' or 'exact', got {family!r}")
    # the order and the grid are valid, so only a value that is not finite fails
    try:
        measured = operator_response(weights, grid)
        with np.errstate(over="ignore", invalid="ignore"):
            columns = _error_columns(measured, power_law_target(order, grid))
            if family == "gl":
                columns += _error_columns(measured, gl_response_target(order, grid))
        _finite(*columns)
    except ValueError:
        raise ValueError(f"response of order {order:g} is not finite on this grid") from None
    return ResponseReport(grid, measured, *columns)


def sample_autocovariance(y: Series, max_lag: int) -> np.ndarray:
    """Biased-normalization sample autocovariance for lags 0..max_lag.

    rho(k) = (1/n) sum_t (y_t - ybar)(y_{t+k} - ybar), the inverse transform
    of the power of the series' memoised centred ``Series.rfft`` at the
    5-smooth length from n + max_lag, not 2n - 1 (``_kernels.autocovariance``):
    one forward and one inverse transform at every n, within 1e-13 *
    sum|c| * max|c| / n of the exact sums, c the centred values.  ValueError
    if the centring or a sum overflows.
    """
    n = len(y)
    max_lag = _whole(max_lag, "max_lag")
    if not (0 <= max_lag < n):
        raise ValueError("max_lag must satisfy 0 <= max_lag < len(y)")
    with np.errstate(over="ignore", invalid="ignore"):
        acov = _kernels.autocovariance(y, max_lag)
    _finite(acov)
    return acov


class _LogRegressor(NamedTuple):
    """The regressor of a log-log fit: log x, its mean, its centred copy
    and the sum of that copy's squares."""

    log: np.ndarray
    mean: float
    centred: np.ndarray
    sxx: float


def _log_regressor(lx: np.ndarray) -> _LogRegressor:
    """The regressor of the log abscissae ``lx``; its arrays read-only."""
    mean = lx.mean()
    centred = lx - mean
    return _LogRegressor(_read_only(lx), mean, _read_only(centred), float(np.dot(centred, centred)))


# regressors of log-periodogram fits, keyed by (n_fft, bandwidth, step)
_regressor_cache = _kernels.BoundedCache()


def _periodogram_regressor(n_fft: int, bandwidth: int, step: float) -> _LogRegressor:
    """The regressor log omega_j of :func:`periodogram`'s j = 1..bandwidth,
    built once per (n_fft, bandwidth, step)."""
    return _regressor_cache.get_or_build(
        (n_fft, bandwidth, step),
        lambda: _log_regressor(np.log(_frequencies(n_fft, bandwidth, step))))


def _slope_fit(x: _LogRegressor, ly: np.ndarray) -> SlopeFit:
    """Least-squares line through (x.log, ly), the arithmetic of
    :func:`loglog_slope_fit` with no checks: x.sxx must be positive and ly
    finite, of x's length and at least 3 long."""
    slope = float(np.dot(x.centred, ly) / x.sxx)
    intercept = float(ly.mean() - slope * x.mean)
    resid = ly - (intercept + slope * x.log)
    stderr = math.sqrt(float(np.dot(resid, resid)) / (ly.size - 2) / x.sxx)
    return SlopeFit(slope, intercept, stderr)


def loglog_slope_fit(xs, ys) -> SlopeFit:
    """Least-squares line through (log x, log y); stderr is for the slope.

    Its checks run first, then the one private OLS core that
    ``arfima.estimate_memory`` also runs on its memoised regressor, so both
    give the same bits on the same values."""
    x = np.asarray(xs, dtype=np.float64)
    s = np.asarray(ys, dtype=np.float64)
    if x.size != s.size or x.size < 3:
        raise ValueError("need at least 3 (x, y) pairs")
    if not ((x > 0.0).all() and (s > 0.0).all()):
        raise ValueError("log-log fit requires strictly positive values")
    if np.isinf(x).any() or np.isinf(s).any():
        raise ValueError("log-log fit requires finite values")
    regressor = _log_regressor(np.log(x))
    if regressor.sxx == 0.0:
        raise ValueError("x values must not be all equal")
    return _slope_fit(regressor, np.log(s))
