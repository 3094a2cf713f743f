"""Grunwald-Letnikov fractional differencing of sampled series.

The central objects are the coefficient sequence of (1-L)^alpha with the
alternating sign folded in and its application to a series under the
zero-pre-sample ("type II") convention: samples before the first one are
treated as zero, which makes differencing and integration exact formal
inverses at matching truncation.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels

__all__ = [
    "Series",
    "gl_coefficients",
    "gl_difference",
    "gl_derivative_approx",
    "TRUNCATION_CAP",
]

TRUNCATION_CAP = 10**6

_operator_cache = _kernels.BoundedCache()  # (order, truncation) -> Taps


@dataclass(frozen=True, eq=False)
class Series:
    """Uniformly sampled real-valued series.

    ``values[i]`` is the sample at time ``start + i * step``.  The series
    memoises its transforms: ``rfft()``, the real FFT of its values at their
    own length, which periodic exact differences and the periodogram read,
    and ``spectrum(size)``, the zero-padded one, which GL differences and
    zero-boundary exact differences read whenever their FFT lengths agree.
    """

    values: np.ndarray
    step: float = 1.0
    start: float = 0.0
    _spectra: _kernels.BoundedCache = field(
        init=False, repr=False, default_factory=_kernels.BoundedCache
    )

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("series must contain at least one sample")
        if not np.isfinite(v).all():
            raise ValueError("series values must all be finite")
        if not (self.step > 0.0):
            raise ValueError("series step must be positive")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.values.size)

    def rfft(self) -> np.ndarray:
        """The real FFT of the values at length n, read-only (n // 2 + 1
        complex values).

        Bins 1..n // 2 are ``np.fft.rfft`` of the mean-removed values, so
        their rounding scales with the series' fluctuations, not its level;
        bin 0 is the values' sum.  Kept with the padded spectra, under the
        key "centred".
        """
        def build():
            total = self.values.sum()
            spectrum = np.fft.rfft(self.values - total / self.values.size)
            spectrum[0] = total
            return _kernels._read_only(spectrum)

        return self._spectra.get_or_build("centred", build)

    def spectrum(self, size: int) -> np.ndarray:
        """``np.fft.rfft(values, size)``, read-only.

        The spectra of the last ``_kernels.CACHE_BOUND`` keys asked for,
        this and :meth:`rfft` together, are kept on the series, so they go
        when it does.
        """
        return self._spectra.get_or_build(
            size, lambda: _kernels._read_only(np.fft.rfft(self.values, size))
        )

    def with_values(self, values) -> "Series":
        return Series(values, self.step, self.start)


def gl_coefficients(order: float, truncation: int) -> np.ndarray:
    """Signed expansion coefficients c_0..c_truncation of (1-L)^order, as a
    read-only float64 array.

    c_0 = 1, c_m = c_{m-1} * (m - 1 - order) / m.  For nonnegative integer
    order the sequence terminates in exact zeros past lag ``order``.  Raises
    ValueError when the truncation is negative or above ``TRUNCATION_CAP``,
    or when an order too large makes a coefficient overflow.
    """
    if not math.isfinite(order):
        raise ValueError(f"order must be finite, got {order}")
    truncation = int(truncation)
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


def _gl_operator(order: float, truncation: int) -> _kernels.Taps:
    """The coefficients of :func:`gl_coefficients` without their exact
    trailing zeros, as :class:`_kernels.Taps` with memoised spectra.

    Operators are cached by the exact (float(order), int(truncation)) in a
    :class:`_kernels.BoundedCache`, which keeps the last
    ``_kernels.CACHE_BOUND`` = 8 built.
    """
    order, truncation = float(order), int(truncation)
    return _operator_cache.get_or_build(
        (order, truncation),
        lambda: _kernels.Taps(_kernels._without_trailing_zeros(gl_coefficients(order, truncation))),
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
    and series length transform only the series.  On the FFT path the series
    is transformed at L, the 5-smooth length from n + truncation, and keeps
    that spectrum (``Series.spectrum``); a zero-boundary exact difference of
    half-width ``truncation`` transforms at the same L and reuses it.  Exact
    trailing zeros are dropped, so a nonnegative integer order is a short
    direct sum at any truncation.

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
    """
    if not (step > 0.0):
        raise ValueError("step must be positive")
    coeffs = gl_coefficients(order, truncation)
    samples = np.array([f(t - m * step) for m in range(coeffs.size)], dtype=np.float64)
    if not np.isfinite(samples).all():
        raise ValueError("function provider returned a non-finite value")
    return float(np.dot(coeffs, samples) / step**order)
