"""Hot inner loops: convolution with a kernel, the causal, zero and periodic
boundaries, the AR recursion, and the one place the transforms they
multiply are formed.

A kernel is weights at integer lags, and its type fixes the lags:
:class:`Taps` are causal, weight k at lag k (a GL operator, an MA filter),
and a :class:`KernelWindow` is centred, its 2M + 1 weights at lags -M..M
(an exact-difference window).  Each kernel has one memoised transform,
``spectrum(size)``: the weights summed by lag mod size, then ``rfft``.  The
causal, zero and periodic boundaries multiply by it, and so does the
response fold of ``spectral.operator_response``.

The causal sum and the zero boundary are both ``convolve(y, kernel, 0, n)``,
z[t] = sum_k w_k y[t - lag_k] at the times [start, stop).  It sums directly
with ``np.convolve`` while the shorter operand is below ``FFT_MIN_SIZE``,
and otherwise multiplies real FFTs at L = the smallest 5-smooth length from
max(stop - first lag, n + last lag - start): entry t of the circular
product also sums the times t - L and t + L, and at that L neither is in
z's support.  So M + 1 causal weights and 2M + 1 centred ones both
transform at n + M, and a ``glops.Series`` supplies its memoised
zero-padded spectrum at L, which a GL difference and a zero-boundary exact
difference of one series share.  Plain weights go in a throwaway kernel.
The crossover was measured for memoised weights on a grid of shorter side
128-512 by longer side 512-1e5 (2-vCPU x86 host; README "Kernels").  The
direct path keeps ``np.convolve``'s rounding bit for bit; the FFT path is
within 1e-13 * sum|w| * max|y| of the exact sum, and measured against the
direct sum within ~1.2e-16 times that scale up to n = M = 1e5.

The periodic boundary is one circular product at every n and window
length: the series' :func:`centred_rfft` at n (memoised as ``Series.rfft()``)
times the kernel's ``spectrum(n)``, and one ``irfft`` at n.  It costs
O(n log n), several times more at a length with a large prime factor than
at a 5-smooth one (README "Kernels").  The causal and zero boundaries stay
on ``convolve``: on the circular route they would also subtract the sums
that wrap round the series' ends, which on the same host cost as much as
the shorter transform saves up to n = 8192.  The direct/FFT choice reads
the operands' sizes only, never whether a spectrum is memoised yet, so a
hit gives the bits of a miss.  The AR recursion is sequential, a
pure-Python loop over floats, cheaper than indexing numpy scalars.

Exact-kernel windows, GL operators and the spectra of each kernel and each
``glops.Series`` are kept in :class:`BoundedCache` instances.
"""

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FFT_MIN_SIZE",
    "CACHE_BOUND",
    "BoundedCache",
    "Taps",
    "KernelWindow",
    "convolve",
    "causal_apply",
    "two_sided_apply_zero",
    "two_sided_apply_periodic",
    "ar_recurse",
]

# convolve sums directly while the shorter operand is below this many samples
FFT_MIN_SIZE = 224

# entries every BoundedCache keeps: exact windows, GL operators, and the FFT
# lengths of one kernel's or one Series' spectra (a series of fixed length
# needs one or two)
CACHE_BOUND = 8


def _as_f8(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _without_trailing_zeros(c: np.ndarray) -> np.ndarray:
    """``c`` up to its last nonzero entry (its first, if all are zero).

    Exact trailing zeros, such as the GL terms of a nonnegative integer
    order, add nothing; without them such filters stay on the direct sum at
    any length."""
    nonzero = np.flatnonzero(c)
    return c[: nonzero[-1] + 1 if nonzero.size else 1]


class BoundedCache(dict):
    """A dict of at most ``CACHE_BOUND`` entries, filled by
    :meth:`get_or_build` under the cache's own lock.  The build runs outside
    the lock; builders racing on one key each get the first value stored;
    past the bound the oldest entry goes."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()

    def get_or_build(self, key, build):
        """``self[key]``, from ``build()`` on a miss."""
        with self._lock:
            value = self.get(key)
        if value is None:
            value = build()
            with self._lock:
                value = self.setdefault(key, value)
                while len(self) > CACHE_BOUND:
                    del self[next(iter(self))]
        return value


@dataclass(frozen=True, eq=False)
class Taps:
    """Causal convolution weights, ``weights[k]`` at lag k, read-only, with
    their memoised spectra.

    ``weights`` must be one-dimensional, nonempty and finite; they are
    copied.
    """

    weights: np.ndarray
    _spectra: BoundedCache = field(init=False, repr=False, default_factory=BoundedCache)

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("kernel weights must be one-dimensional and nonempty")
        if not np.isfinite(w).all():
            raise ValueError("kernel weights must be finite")
        object.__setattr__(self, "weights", _read_only(w))

    def __len__(self) -> int:
        return self.weights.size

    def _first_lag(self) -> int:
        return 0

    @property
    def lags(self) -> np.ndarray:
        """The integer lag of each weight, in order."""
        return np.arange(self.weights.size) + self._first_lag()

    def spectrum(self, size: int) -> np.ndarray:
        """Bins j = 0..size // 2 of sum_k weights[k] e^{-2 pi i j lags[k] / size}:
        the weights summed by lag mod ``size``, then ``np.fft.rfft``;
        read-only.  For causal weights at ``size >= len`` it is
        ``np.fft.rfft(weights, size)``.

        The spectra of the last ``CACHE_BOUND`` sizes asked for are kept on
        the object, so they go when it does.
        """
        return self._spectra.get_or_build(size, lambda: _read_only(np.fft.rfft(
            np.bincount(self.lags % size, weights=self.weights, minlength=size), size)))


class KernelWindow(Taps):
    """Weights K(-M)..K(+M) of a two-sided kernel, ``weights[k]`` at lag
    k - M, read-only, with their memoised spectra.

    ``weights`` must be one-dimensional, finite and of odd length 2M + 1 >= 3;
    the middle one is K(0).  The window holds no labels: an exact fractional
    difference comes from ``exactops.exact_kernel_window``, which alone
    knows the order.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.weights.size < 3 or self.weights.size % 2 == 0:
            raise ValueError("kernel weights must be one-dimensional of odd length >= 3")

    def _first_lag(self) -> int:
        return -(self.weights.size // 2)


def centred_rfft(values: np.ndarray, size: int) -> np.ndarray:
    """``np.fft.rfft`` at length ``size`` of the values less their mean (the
    sum over n, bit for bit ``values.mean()``), so that the rounding of bins
    1..size // 2 scales with the fluctuations, not the level; bin 0 is the
    sum.  Read-only."""
    total = values.sum()
    spectrum = np.fft.rfft(values - total / values.size, size)
    spectrum[0] = total
    return _read_only(spectrum)


@functools.lru_cache(maxsize=64)
def _fft_length(target: int) -> int:
    """Smallest 2^a 3^b 5^c >= target."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def convolve(y, w, start=0, stop=None) -> np.ndarray:
    """z[t] = sum_k weights[k] * y[t - lags[k]] at t = start..stop - 1, with
    samples outside y zero; 0 <= start, and ``stop`` defaults to
    len(y) + the last lag, the end of z's support.

    ``y`` is an array or a ``glops.Series`` and ``w`` a :class:`Taps` or a
    :class:`KernelWindow`, or an array taken as causal weights.  The FFT
    path, from ``FFT_MIN_SIZE`` on, transforms at the smallest 5-smooth
    length from max(stop - first lag, len(y) + last lag - start), at which
    no wrapped sum lands in the window, and reuses the memoised spectra of
    the kernel and of a ``glops.Series`` at that length.  The causal and
    zero boundaries, the MA filter and the sample autocovariance call it;
    the periodic boundary does not.
    """
    series_spectrum = getattr(y, "spectrum", None)
    kernel = w if isinstance(w, Taps) else Taps(w)
    y = _as_f8(y if series_spectrum is None else y.values)
    n, first = y.shape[0], kernel._first_lag()
    last = first + len(kernel) - 1
    stop = n + last if stop is None else stop
    if min(n, len(kernel)) < FFT_MIN_SIZE:
        # entry i of the linear product is time i + first
        return np.convolve(y, kernel.weights)[start - first : stop - first]
    # circular entry t also sums the times t - size and t + size
    size = _fft_length(max(stop - first, n + last - start))
    y_hat = np.fft.rfft(y, size) if series_spectrum is None else series_spectrum(size)
    return np.fft.irfft(y_hat * kernel.spectrum(size), size)[start:stop]


def _two_sided(weights) -> Taps:
    return weights if isinstance(weights, Taps) else KernelWindow(weights)


def causal_apply(y, coeffs) -> np.ndarray:
    """z[t] = sum_{m=0}^{min(t, M)} coeffs[m] * y[t-m] (zero pre-sample).

    ``y`` and ``coeffs`` are as for :func:`convolve`; an array of
    coefficients loses its exact trailing zeros.
    """
    if not isinstance(coeffs, Taps):
        coeffs = _without_trailing_zeros(_as_f8(coeffs))
    return convolve(y, coeffs, 0, len(y))


def two_sided_apply_zero(y, weights) -> np.ndarray:
    """z[t] = sum_{m=-M}^{M} K(m) * y[t-m], out-of-range samples zero.

    ``y`` is as for :func:`convolve`; ``weights`` is a kernel, applied at
    its own lags, or an array taken as a :class:`KernelWindow`.  The FFT
    path transforms at the 5-smooth length from n + M, not from n + 2M.
    """
    return convolve(y, _two_sided(weights), 0, len(y))


def two_sided_apply_periodic(y, weights) -> np.ndarray:
    """z[t] = sum_{m=-M}^{M} K(m) * y[(t-m) mod n].

    ``y`` and ``weights`` are as for :func:`two_sided_apply_zero`.  At
    every n and window length this is the circular product of the module
    docstring: the series' centred transform at n (the memoised ``rfft()``
    of a ``glops.Series``) times the kernel's memoised ``spectrum(n)``, and
    one ``irfft`` at n.
    """
    kernel = _two_sided(weights)
    n = len(y)
    rfft = getattr(y, "rfft", None)
    y_hat = centred_rfft(_as_f8(y), n) if rfft is None else rfft()
    return np.fft.irfft(y_hat * kernel.spectrum(n), n)


def ar_recurse(x, phi) -> np.ndarray:
    """out[t] = x[t] + sum_i phi[i] * out[t-1-i] with zero initial history."""
    phi = _as_f8(phi).tolist()
    p = len(phi)
    out = []
    for t, acc in enumerate(_as_f8(x).tolist()):
        for i in range(min(p, t)):
            acc += phi[i] * out[t - 1 - i]
        out.append(acc)
    return np.array(out, dtype=np.float64)
