"""Hot inner loops: linear convolution, truncated causal convolution,
two-sided kernel application, and the AR recursion.

All three convolutions go through ``convolve``.  It sums directly with
``np.convolve`` while the shorter operand is below a crossover, and otherwise
multiplies real FFTs zero-padded to a 5-smooth length.  An operand held as
:class:`Taps` (GL operators and exact-kernel windows, both cached) supplies
its memoised weight spectrum, so on the FFT path it costs one ``rfft`` of the
series and one ``irfft``; the values are those of transforming the weights,
so outputs are bit-identical.  Two plain arrays cost three transforms, as
does the first call of a :class:`Taps` at an FFT length.  The crossover
follows the operand's type, never whether its spectrum is memoised yet, so a
call's output depends only on its inputs.  Both crossovers are measured on a
grid of shorter side 128-512 by longer side 512-1e5 (2-vCPU x86 host): for
two plain arrays ``FFT_MIN_SIZE`` = 384 costs the least over the faster path,
and for a :class:`Taps` with its spectrum memoised ``TAPS_FFT_MIN_SIZE`` =
224 does.  The direct path keeps ``np.convolve``'s rounding bit for bit.  The
FFT path is within 1e-13 * sum|w| * max|y| of the exact sum; measured against
the direct sum it is within ~1.2e-16 times that scale up to n = M = 1e5.  The
periodic boundary wrap-pads the series by the kernel half-width and keeps the
part the padding fully covers.  The AR recursion is inherently sequential and
runs as a pure-Python loop over floats, which is cheaper than indexing numpy
scalars.

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

    ``weights`` is an array or :class:`Taps`, as for :func:`convolve`.
    """
    y = _as_f8(y)
    n = y.shape[0]
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
