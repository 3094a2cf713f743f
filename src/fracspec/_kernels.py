"""Hot inner loops: linear convolution, truncated causal convolution,
two-sided kernel application and the AR recursion, and the one place the
transforms they multiply are formed.

The causal and zero-boundary convolutions go through ``convolve``, which
returns the window [start, stop) of the linear product that its caller
keeps.  It sums directly with ``np.convolve`` while the shorter operand is
below ``FFT_MIN_SIZE``, and otherwise multiplies real FFTs zero-padded to
L = the smallest 5-smooth length from max(stop, full - start), full =
len(y) + len(w) - 1.  Entry k of the length-L circular product also sums
the linear entries k - L and k + L, and at that L none of them exists for k
in the window.  So the causal sum (window [0, n)) transforms at n + M for
M + 1 weights and the zero boundary ([M, M + n) of 2M + 1 weights) at n + M
rather than n + 2M.  The weights are held as :class:`Taps` (plain weights
in a throwaway one), whose spectrum is memoised, and a series passed as a
``glops.Series`` supplies its memoised zero-padded spectrum at L, so a GL
difference of M + 1 weights and a zero-boundary exact difference of
half-width M of one series share one transform of it.  The crossover was
measured for memoised weights, as GL operators and exact-kernel windows
are, on a grid of shorter side 128-512 by longer side 512-1e5 (2-vCPU x86
host); README "Kernels" gives the grid and what it costs the one caller
with two plain arrays, the sample autocovariance.  The direct path keeps
``np.convolve``'s rounding bit for bit.  The FFT path is within
1e-13 * sum|w| * max|y| of the exact sum; measured against the direct sum
it is within ~1.2e-16 times that scale up to n = M = 1e5.

The periodic boundary is one circular product at every n and every window
length: the series' :func:`centred_rfft` at n (memoised as
``Series.rfft()`` on a ``glops.Series``) times the weights'
:func:`folded_rfft` mod n (memoised as ``Taps.folded_spectrum(n)``), and
one ``irfft`` at n.  That is the periodic sum exactly, at any half-width,
with no padding.  It costs O(n log n) at every n; at a length with a large
prime factor numpy's transform is several times slower than at a 5-smooth
one (README "Kernels" gives the cost).  The causal and zero boundaries stay
on ``convolve``: on the circular route they would also subtract the sums
that wrap round the series' ends, which on the same host cost as much as
the shorter transform saves up to n = 8192, and no benchmark workload runs
them on a longer 5-smooth series with a short operator.  Every route is
chosen by the operands' sizes only, never by their types nor by whether a
spectrum is memoised yet, so a hit gives the bits of a miss.  The AR
recursion is inherently sequential and runs as a pure-Python loop over
floats, which is cheaper than indexing numpy scalars.

Exact-kernel windows, GL operators and the spectra of each :class:`Taps`
and each ``glops.Series`` are kept in :class:`BoundedCache` instances, each
holding its newest ``CACHE_BOUND`` entries.
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
    "convolve",
    "causal_apply",
    "two_sided_apply_zero",
    "two_sided_apply_periodic",
    "ar_recurse",
]

# convolve sums directly while the shorter operand is below this many samples
FFT_MIN_SIZE = 224

# entries every BoundedCache keeps: exact windows, GL operators, and the FFT
# lengths of one Taps's or one Series' spectra (a series of fixed length needs
# one or two)
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
    """Convolution weights, read-only, with their memoised spectra.

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

    def spectrum(self, size: int) -> np.ndarray:
        """``np.fft.rfft(weights, size)``, read-only.

        The spectra of the last ``CACHE_BOUND`` lengths asked for are kept
        on the object, so they go when it does.
        """
        return self._spectra.get_or_build(
            size, lambda: _read_only(np.fft.rfft(self.weights, size))
        )

    def folded_spectrum(self, n: int) -> np.ndarray:
        """:func:`folded_rfft` at length n of the weights as a two-sided
        kernel, weight k at lag k - (len - 1) // 2; kept with the linear
        spectra under the key ("folded", n)."""
        lags = np.arange(self.weights.size) - (self.weights.size - 1) // 2
        return self._spectra.get_or_build(("folded", n), lambda: folded_rfft(lags, self.weights, n))


def folded_rfft(lags, weights, n: int) -> np.ndarray:
    """Bins j = 0..n // 2 of sum_m weights[m] e^{-2 pi i j lags[m] / n}: the
    weights summed by their integer lag mod n, then ``np.fft.rfft``; read-only."""
    return _read_only(np.fft.rfft(np.bincount(lags % n, weights=weights, minlength=n), n))


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
    """Entries [start, stop) of the full linear convolution of y and w,
    which has len(y) + len(w) - 1 entries; ``stop`` defaults to that length.

    ``y`` is an array or a ``glops.Series`` and ``w`` an array or
    :class:`Taps`.  The FFT path, from ``FFT_MIN_SIZE`` on, transforms at
    the smallest 5-smooth length at which no wrapped sum lands in the
    window, and reuses the memoised spectra of a :class:`Taps` and of a
    ``glops.Series`` at that length.  The causal and zero boundaries, the MA
    filter and the sample autocovariance call it; the periodic boundary
    does not.
    """
    series_spectrum = getattr(y, "spectrum", None)
    taps = w if isinstance(w, Taps) else Taps(w)
    y = _as_f8(y if series_spectrum is None else y.values)
    full = y.shape[0] + len(taps) - 1
    stop = full if stop is None else stop
    if min(y.shape[0], len(taps)) < FFT_MIN_SIZE:
        return np.convolve(y, taps.weights)[start:stop]
    # circular entry k also sums the linear entries k - size and k + size
    size = _fft_length(max(stop, full - start))
    y_hat = np.fft.rfft(y, size) if series_spectrum is None else series_spectrum(size)
    return np.fft.irfft(y_hat * taps.spectrum(size), size)[start:stop]


def causal_apply(y, coeffs) -> np.ndarray:
    """z[t] = sum_{m=0}^{min(t, M)} coeffs[m] * y[t-m] (zero pre-sample).

    ``y`` and ``coeffs`` are as for :func:`convolve`; an array of
    coefficients loses its exact trailing zeros.
    """
    if not isinstance(coeffs, Taps):
        coeffs = _without_trailing_zeros(_as_f8(coeffs))
    return convolve(y, coeffs, 0, len(y))


def two_sided_apply_zero(y, weights) -> np.ndarray:
    """z[t] = sum_{m=-M}^{M} weights[m+M] * y[t-m], out-of-range samples zero.

    ``y`` and ``weights`` are as for :func:`convolve`.  Only the n outputs
    from lag M on are kept, so the FFT path transforms at the 5-smooth
    length from n + M, not from n + 2M.
    """
    half = (len(weights) - 1) // 2
    return convolve(y, weights, half, half + len(y))


def two_sided_apply_periodic(y, weights) -> np.ndarray:
    """z[t] = sum_{m=-M}^{M} weights[m+M] * y[(t-m) mod n].

    ``y`` is an array or a ``glops.Series`` and ``weights`` an array or
    :class:`Taps`.  At every n and window length this is the circular
    product of the module docstring: the series' centred transform at n
    (the memoised ``rfft()`` of a ``glops.Series``) times the weights'
    memoised ``folded_spectrum(n)``, and one ``irfft`` at n.
    """
    taps = weights if isinstance(weights, Taps) else Taps(weights)
    n = len(y)
    rfft = getattr(y, "rfft", None)
    y_hat = centred_rfft(_as_f8(y), n) if rfft is None else rfft()
    return np.fft.irfft(y_hat * taps.folded_spectrum(n), n)


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
