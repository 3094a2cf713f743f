"""Hot inner loops: linear convolution, truncated causal convolution,
two-sided kernel application, and the AR recursion.

All three convolutions go through ``convolve``.  It sums directly with
``np.convolve`` while the shorter operand is below a crossover, and otherwise
multiplies real FFTs zero-padded to a 5-smooth length.  An operand held as
:class:`Taps` (GL operators and exact-kernel windows, both cached) supplies
its memoised weight spectrum, so on the FFT path it costs one ``rfft`` of the
series and one ``irfft``; the values are those of transforming the weights,
so outputs are bit-identical.  Two plain arrays cost three transforms, as
does the first call of a :class:`Taps` at an FFT length.  Both crossovers are
measured on a grid of shorter side 128-512 by longer side 512-1e5 (2-vCPU
x86 host): for two plain arrays ``FFT_MIN_SIZE`` = 384 costs the least over
the faster path, and for a :class:`Taps` with its spectrum memoised
``TAPS_FFT_MIN_SIZE`` = 224 does.  The direct path keeps ``np.convolve``'s
rounding bit for bit.  The FFT path is within 1e-13 * sum|w| * max|y| of the
exact sum; measured against the direct sum it is within ~1.2e-16 times that
scale up to n = M = 1e5.

The periodic boundary has a second, circular route.  A series passed as a
``glops.Series``, which memoises ``rfft()`` of its values at their own
length n, of 5-smooth n (``_fft_length(n) == n``), with a :class:`Taps` of
at least ``TAPS_FFT_MIN_SIZE`` weights, is convolved as one length-n
product: the series' spectrum times the weights folded mod n
(``Taps.folded_spectrum(n)``, memoised), and one ``irfft``.  That is the
periodic sum exactly, at any half-width, with no padding.  Otherwise the
series is wrap-padded by the half-width and convolved, keeping the part
the padding fully covers.  Time per call, circular over wrap-padded, on a
grid of n = 1024-1e5 (powers of two to 65536, and 1e5) by half-width
224-2048 (same host, median of per-call times with the routes interleaved,
two sessions):

    n            single-use    shared
    1024-4096    0.25-0.97     0.11-0.48
    8192         0.66-1.04     0.29-0.48
    16384-1e5    0.54-1.01     0.25-0.46

Single-use transforms the series for the call (the mean-removed values and
their sum, as ``Series.rfft`` does); shared finds its spectrum memoised, as
the second and later uses of one series do.  Single-use breaks even at
worst (half-width 224-256 at n = 8192), so the route is taken at every
half-width.  The causal and zero boundaries stay on ``convolve``: on the
circular route they would also subtract the sums that wrap round the
series' ends, which on the same host cost as much as the shorter transform
saves up to n = 8192, and no benchmark workload runs them on a longer
5-smooth series with a short operator.  The choice reads the operand types
and sizes only, never whether a spectrum is memoised yet, so a call's
output depends only on its inputs.  The AR recursion is inherently
sequential and runs as a pure-Python loop over floats, which is cheaper
than indexing numpy scalars.

Exact-kernel windows, GL operators and each :class:`Taps`'s spectra are kept
in :class:`BoundedCache` instances, each holding its newest ``CACHE_BOUND``
entries.
"""

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FFT_MIN_SIZE",
    "TAPS_FFT_MIN_SIZE",
    "CACHE_BOUND",
    "BoundedCache",
    "Taps",
    "convolve",
    "causal_apply",
    "two_sided_apply_zero",
    "two_sided_apply_periodic",
    "ar_recurse",
]

# direct np.convolve while the shorter operand is below this many samples;
# the second applies when the weights are Taps, whose spectrum is memoised
FFT_MIN_SIZE = 384
TAPS_FFT_MIN_SIZE = 224

# entries every BoundedCache keeps: exact windows, GL operators, and the FFT
# lengths of one Taps's spectra (a series of fixed length needs one or two)
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
        """``np.fft.rfft`` at length n of the weights as a two-sided kernel,
        weight k at lag k - (len - 1) // 2, with the lags folded mod n;
        read-only.

        Kept with the linear spectra, under the key ("folded", n).
        """
        lags = np.arange(self.weights.size) - (self.weights.size - 1) // 2
        return self._spectra.get_or_build(("folded", n), lambda: _read_only(
            np.fft.rfft(np.bincount(lags % n, weights=self.weights, minlength=n))
        ))


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


def convolve(y, w) -> np.ndarray:
    """Full linear convolution, length len(y) + len(w) - 1.

    ``w`` is an array of weights or :class:`Taps`, whose memoised spectrum
    the FFT path reuses from ``TAPS_FFT_MIN_SIZE`` on.
    """
    taps = w if isinstance(w, Taps) else None
    y, w = _as_f8(y), _as_f8(w if taps is None else taps.weights)
    if min(y.shape[0], w.shape[0]) < (FFT_MIN_SIZE if taps is None else TAPS_FFT_MIN_SIZE):
        return np.convolve(y, w)
    full = y.shape[0] + w.shape[0] - 1
    size = _fft_length(full)
    w_hat = np.fft.rfft(w, size) if taps is None else taps.spectrum(size)
    return np.fft.irfft(np.fft.rfft(y, size) * w_hat, size)[:full]


def causal_apply(y, coeffs) -> np.ndarray:
    """z[t] = sum_{m=0}^{min(t, M)} coeffs[m] * y[t-m] (zero pre-sample).

    ``coeffs`` is an array or :class:`Taps`, as for :func:`convolve`.
    """
    y = _as_f8(y)
    if not isinstance(coeffs, Taps):
        coeffs = _without_trailing_zeros(_as_f8(coeffs))
    return convolve(y, coeffs)[: y.shape[0]]


def two_sided_apply_zero(y, weights) -> np.ndarray:
    """z[t] = sum_{m=-M}^{M} weights[m+M] * y[t-m], out-of-range samples zero.

    ``weights`` is an array or :class:`Taps`, as for :func:`convolve`.
    """
    y = _as_f8(y)
    half = (len(weights) - 1) // 2
    return convolve(y, weights)[half : half + y.shape[0]]


def two_sided_apply_periodic(y, weights) -> np.ndarray:
    """z[t] = sum_{m=-M}^{M} weights[m+M] * y[(t-m) mod n].

    ``y`` is an array or a ``glops.Series``, ``weights`` an array or
    :class:`Taps`; a series of 5-smooth length with :class:`Taps` of at least
    ``TAPS_FFT_MIN_SIZE`` weights takes the circular route of the module
    docstring.
    """
    rfft = getattr(y, "rfft", None)
    y = _as_f8(y if rfft is None else y.values)
    n = y.shape[0]
    if (rfft is not None and isinstance(weights, Taps)
            and len(weights) >= TAPS_FFT_MIN_SIZE and _fft_length(n) == n):
        return np.fft.irfft(rfft() * weights.folded_spectrum(n), n)
    half = (len(weights) - 1) // 2
    if half <= n:
        padded = np.concatenate((y[n - half :], y, y[:half]))
    else:
        # the padding repeats the series more than once
        padded = y[np.arange(-half, n + half) % n]
    return convolve(padded, weights)[2 * half : 2 * half + n]


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
