"""Grunwald-Letnikov fractional differencing of sampled series.

The central objects are the coefficient sequence of (1-L)^alpha with the
alternating sign folded in and its application to a series under the
zero-pre-sample ("type II") convention: samples before the first one are
treated as zero.  On n samples, differencing and integration are then
exact inverses when both keep every coefficient up to lag n - 1, a
truncation of at least n - 1; at a shorter matching truncation the two
truncated series do not compose to the identity.  ``Series`` is
re-exported from ``_kernels``, beside the kernels it is convolved with.
"""

from typing import Callable

import numpy as np

from . import _kernels
from ._kernels import Series, _finite, _real, _whole

__all__ = [
    "Series",
    "gl_coefficients",
    "gl_difference",
    "gl_derivative_approx",
    "TRUNCATION_CAP",
]

TRUNCATION_CAP = 10**6

_operator_cache = _kernels.BoundedCache()  # (order, truncation) -> Taps


def gl_coefficients(order: float, truncation: int) -> np.ndarray:
    """Signed expansion coefficients c_0..c_truncation of (1-L)^order, as a
    read-only float64 array.

    c_0 = 1, c_m = c_{m-1} * (m - 1 - order) / m.  For nonnegative integer
    order the sequence terminates in exact zeros past lag ``order``.  Raises
    ValueError when the truncation is negative or above ``TRUNCATION_CAP``,
    or when an order too large makes a coefficient overflow.
    """
    order = _real(order, "order")
    truncation = _whole(truncation, "truncation")
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    if truncation > TRUNCATION_CAP:
        raise ValueError(f"truncation exceeds cap {TRUNCATION_CAP}")
    m = np.arange(1, truncation + 1, dtype=np.float64)
    coeffs = np.empty(truncation + 1)
    coeffs[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs[1:] = np.cumprod((m - 1.0 - order) / m)
    if not np.isfinite(coeffs).all():
        raise ValueError(
            f"GL coefficients of order {order:g} are not finite at truncation {truncation}"
        )
    coeffs.flags.writeable = False
    return coeffs


def _without_trailing_zeros(c):
    """Causal filter weights up to the last nonzero one (c_0 = 1 never is).
    Exact trailing zeros, past lag ``order`` of a nonnegative integer order
    or at the end of an MA list, add nothing; without them the filter is a
    shorter direct sum of the same bits."""
    return c[: np.flatnonzero(c)[-1] + 1]


def _gl_operator(order: float, truncation: int) -> _kernels.Taps:
    """The coefficients of :func:`gl_coefficients` without their exact
    trailing zeros, as :class:`_kernels.Taps` with memoised spectra.

    Operators are cached by the exact (float(order), int(truncation)) in a
    :class:`_kernels.BoundedCache`, which keeps the last
    ``_kernels.CACHE_BOUND`` = 8 built.
    """
    order, truncation = _real(order, "order"), _whole(truncation, "truncation")
    return _operator_cache.get_or_build(
        (order, truncation),
        lambda: _kernels.Taps(_without_trailing_zeros(gl_coefficients(order, truncation))),
    )


def gl_difference(y: Series, order: float, truncation: int) -> Series:
    """Apply (1-L_T)^order to a series with the given coefficient truncation.

    z_t = sum_{m=0}^{min(t, truncation)} c_m y_{t-m}; samples before the
    series start count as zero.  Negative order performs discrete fractional
    integration through the same code path: ``gl_difference(y, -d, T)``
    integrates to order d, with MA weights psi_m = (-1)^m C(-d, m), all
    positive for 0 < d < 1.  The coefficients come from a
    cache of GL operators keyed by the exact (order, truncation), which also
    memoises their spectra, so repeated differences at one order, truncation
    and series length transform only the series.  On the FFT path (both
    from ``_kernels.FFT_MIN_SIZE`` = 224 samples) the series is transformed
    at L, the 5-smooth length from n + truncation, and keeps
    that spectrum (``Series.spectrum``); a zero-boundary exact difference of
    half-width ``truncation`` transforms at the same L and reuses it.  Exact
    trailing zeros are dropped, so a nonnegative integer order is a short
    direct sum at any truncation.  ValueError if an output overflows.

    The cache stays alive after the call.  It and each operator's spectra
    keep ``_kernels.CACHE_BOUND`` = 8 entries: at most 8 operators, each
    with its coefficients (8 bytes a tap) and up to 8 spectra (8 bytes per
    sample of FFT length L, which is at least the series length plus the
    truncation).  The worst case is 8 * (8 MB + 64 L) bytes at
    TRUNCATION_CAP: about 2.1 GB for series of 3e6 samples (L = 4e6) and
    0.8 GB for series of 5e5 (L = 1.5e6).  The series' own spectra, kept
    on it, take at most 8 * 8 (L + 2) bytes more and go with it.
    """
    return y.with_values(_kernels.causal_apply(y, _gl_operator(order, truncation)))


def gl_derivative_approx(
    f: Callable[[float], float],
    order: float,
    t: float,
    step: float,
    truncation: int,
) -> float:
    """Finite-step quotient approximating the GL fractional derivative.

    Returns step^(-order) * sum_{m=0}^{truncation} c_m f(t - m*step); the
    quotient tends to the fractional derivative as the step vanishes.
    ValueError if ``t`` or ``step`` is not finite, or if step^order or the
    quotient leaves the double-precision range.
    """
    t, step = _real(t, "t"), _real(step, "step")
    if not step > 0.0:
        raise ValueError("step must be positive")
    coeffs = gl_coefficients(order, truncation)
    samples = np.array([f(t - m * step) for m in range(coeffs.size)], dtype=np.float64)
    if not np.isfinite(samples).all():
        raise ValueError("function provider returned a non-finite value")
    try:
        # gl_coefficients has read the order; step^order raises
        # OverflowError above the double range and is 0.0 below it
        quotient = float(np.dot(coeffs, samples)) / step ** float(order)
        _finite(quotient)
    except (OverflowError, ZeroDivisionError, ValueError):
        raise ValueError(f"step^order or the quotient leaves the double-precision range "
                         f"at step={step:g}, order={order:g}") from None
    return quotient
