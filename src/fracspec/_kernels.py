"""Hot inner loops: convolution with a kernel, the causal, zero and periodic
boundaries, the sample autocovariance, the AR recursion, and both operands,
kernels and :class:`Series`: the one module that forms the transforms they
multiply.

A kernel is weights at integer lags, and its type fixes the lags:
:class:`Taps` are causal, weight k at lag k (a GL operator, an MA filter),
and a :class:`KernelWindow` is centred, its 2M + 1 weights at lags -M..M
(an exact-difference window).  Each kernel has one memoised transform,
``spectrum(size)``: the weights summed by lag mod size, then ``rfft``.  The
causal, zero and periodic boundaries multiply by it, and so does the
response fold of ``spectral.operator_response``.

The causal sum and the zero boundary are both ``convolve(y, kernel)``,
z[t] = sum_k w_k y[t - lag_k] at the series' own times t = 0..n - 1.  It
sums directly with ``np.convolve`` while the shorter operand is below
``FFT_MIN_SIZE``, and otherwise multiplies real FFTs at L = the 5-smooth
length from n plus the largest |lag| that ``_fft_length`` picks by a cost
model fitted to measured transform times: entry t of the circular product
also sums the times t - L and t + L, and at L from that sum on neither
lands on 0..n - 1.  So M + 1 causal weights and 2M + 1 centred ones both
transform at n + M, and a :class:`Series` supplies its memoised
``spectrum(L)``, which a GL difference and a zero-boundary exact
difference of one series share.  Each product takes a :class:`Series` and
a kernel, which a caller holding arrays builds.  The crossover was measured
for memoised weights on a grid of shorter side 128-512 by longer side
512-1e5 (2-vCPU x86 host; README "Kernels").  The direct path keeps
``np.convolve``'s rounding bit for bit; the FFT path is within 1e-13 *
sum|w| * max|y| of the exact sum, and measured against the direct sum
within ~1.2e-16 times that scale up to n = M = 1e5.

The sample autocovariance, ``autocovariance(y, max_lag)``, is no
convolution: it is the inverse transform of the power of the series'
memoised centred ``rfft(L)``, L the 5-smooth length from n + max_lag, so
it builds no operand and transforms once forward and once back at every
n; at L = n_fft it shares that transform with the periodogram.

The periodic boundary is one circular product at every n and window
length: the series' centred ``rfft()`` at n times the kernel's
``spectrum(n)``, and one ``irfft`` at n.  The same product applies an
operand that has a ``spectrum(n)`` and no weights, the untruncated
``exactops.ExactOperator``, whose spectrum is the power law itself.  It
costs O(n log n), several times more at a length with a large prime
factor than at a 5-smooth one (README "Kernels").  The causal and zero boundaries stay
on ``convolve``: on the circular route they would also subtract the sums
that wrap round the series' ends, which on the same host cost as much as
the shorter transform saves up to n = 8192.  The direct/FFT choice reads
the operands' sizes only, never whether a spectrum is memoised yet, so a
hit gives the bits of a miss.  The AR recursion is sequential: it runs on
a :class:`Series` and returns the recursed one through ``with_values``, a
pure-Python loop over floats, cheaper than indexing numpy scalars.

Exact-kernel windows, GL operators and the spectra of each kernel and each
:class:`Series` are kept in :class:`BoundedCache` instances.
"""

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FFT_MIN_SIZE",
    "CACHE_BOUND",
    "BoundedCache",
    "Taps",
    "KernelWindow",
    "Series",
    "convolve",
    "autocovariance",
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

# what every operator says of an output that leaves the double-precision range
_RESULT_NOT_FINITE = "result is not finite: values exceed the double-precision range"

# what Series says of values that are not all finite
_VALUES_NOT_FINITE = "series values must all be finite"


def _whole(value, name: str) -> int:
    """``value`` as an int: an int, a numpy integer or an integral float such
    as 1e4; ValueError naming ``name`` for anything else."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return whole


def _real(value, name: str) -> float:
    """``value`` as a float: a finite int, float or numpy number; ValueError
    naming ``name`` for anything else, such as nan, +-inf, a string or None."""
    try:
        if math.isfinite(value):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        value = repr(value)  # quoted, so that a string is not read as a number
    raise ValueError(f"{name} must be finite, got {value}")


def _finite(*arrays) -> None:
    """ValueError(_RESULT_NOT_FINITE) unless every value of ``arrays``,
    arrays or numbers, is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(_RESULT_NOT_FINITE)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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


@dataclass(frozen=True, eq=False)
class Series:
    """Uniformly sampled real-valued series.

    ``values[i]`` is the sample at time ``start + i * step``: finite values,
    copied and read-only, and a positive finite step and a finite start,
    kept as floats, such that the last time, the span 2 n step and the top
    frequency pi / step are finite too.  The series memoises its
    transforms: ``rfft(size)``, the centred one, which periodic exact
    differences, the periodogram and the sample autocovariance read, and
    ``spectrum(size)``, the zero-padded one, which GL differences and
    zero-boundary exact differences read whenever their FFT lengths agree;
    the last ``CACHE_BOUND`` of both go with the series.
    """

    values: np.ndarray
    step: float = 1.0
    start: float = 0.0
    _spectra: BoundedCache = field(init=False, repr=False, default_factory=BoundedCache)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("series must be one-dimensional")
        if v.size < 1:
            raise ValueError("series must contain at least one sample")
        if not np.isfinite(v).all():
            raise ValueError(_VALUES_NOT_FINITE)
        object.__setattr__(self, "step", _real(self.step, "series step"))
        if not self.step > 0.0:
            raise ValueError("series step must be positive")
        object.__setattr__(self, "start", _real(self.start, "series start"))
        # the last time, a span above the periodogram's n_fft * step, and the
        # top frequency: Python floats overflow to inf without a warning
        step, n = self.step, v.size
        extremes = (self.start + step * (n - 1), 2 * n * step, math.pi / step)
        if not all(map(math.isfinite, extremes)):
            raise ValueError(f"series step {step!r} takes the times or frequencies of {n} "
                             "samples beyond the double-precision range")
        object.__setattr__(self, "values", _read_only(v))

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.values.size)

    def rfft(self, size: int | None = None) -> np.ndarray:
        """``np.fft.rfft`` at length ``size``, n by default, of the values
        less their mean (the sum over n, bit for bit ``values.mean()``), so
        that the rounding of bins 1..size // 2 scales with the fluctuations,
        not the level; bin 0 is the sum.  Read-only, kept under the key
        ("centred", size)."""
        size = self.values.size if size is None else size

        def build():
            total = self.values.sum()
            spectrum = np.fft.rfft(self.values - total / self.values.size, size)
            spectrum[0] = total
            return _read_only(spectrum)

        return self._spectra.get_or_build(("centred", size), build)

    def spectrum(self, size: int) -> np.ndarray:
        """``np.fft.rfft(values, size)``, read-only, kept under the key size."""
        return self._spectra.get_or_build(
            size, lambda: _read_only(np.fft.rfft(self.values, size)))

    def with_values(self, values) -> "Series":
        """An operator's output sampled like this series; ValueError if it overflowed."""
        try:
            return Series(values, self.step, self.start)
        except ValueError as error:
            if error.args != (_VALUES_NOT_FINITE,):
                raise
        raise ValueError(_RESULT_NOT_FINITE)


@functools.lru_cache(maxsize=64)
def _fft_length(target: int) -> int:
    """The length L = 2^a 3^b 5^c >= target of least modelled cost
    L (3a + 6b + 8c), the smaller L on a tie.

    The model counts L samples through one pass per factor, a factor 3
    costing two factor 2s and a factor 5 eight thirds of one: the weights
    fitted to rfft + irfft times of every 5-smooth length from 1024 to
    65536 (README "Kernels").  So 2 3^7 = 4374, which costs 1.3 times a
    power of two per L log2 L, gives way to 4608 = 2^9 3^2 at every target
    from 4321 to 4374.  No length above the next power of two can win:
    every factor costs at least 3 log2 of itself."""
    a = (target - 1).bit_length()
    power = 1 << a
    best = (power * 3 * a, power)  # (cost, length)
    p5, c = 1, 0
    while p5 < power:
        p35, b = p5, 0
        while p35 < power:
            a = (-(-target // p35) - 1).bit_length()
            best = min(best, ((p35 << a) * (3 * a + 6 * b + 8 * c), p35 << a))
            p35, b = p35 * 3, b + 1
        p5, c = p5 * 5, c + 1
    return best[1]


def convolve(y: Series, w: Taps) -> np.ndarray:
    """z[t] = sum_k weights[k] * y[t - lags[k]] at t = 0..len(y) - 1, with
    samples outside y zero.

    ``w`` is :class:`Taps` or a :class:`KernelWindow`, read at its own lags.
    The FFT path, from ``FFT_MIN_SIZE`` on, transforms at the
    ``_fft_length`` of len(y) plus the largest |lag|, from which on no
    wrapped sum lands on the series' times, and reuses the memoised spectra
    of the kernel and of the series at that length.  The causal and zero
    boundaries and the MA filter call it; the periodic boundary does not.
    """
    n, first = len(y), w._first_lag()
    if min(n, len(w)) < FFT_MIN_SIZE:
        # entry i of the linear product is time i + first
        return np.convolve(y.values, w.weights)[-first : n - first]
    # circular entry t also sums the times t - size and t + size
    size = _fft_length(n + max(-first, first + len(w) - 1))
    # an overflow is refused by the caller's with_values, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.irfft(y.spectrum(size) * w.spectrum(size), size)[:n]


def autocovariance(y: Series, max_lag: int) -> np.ndarray:
    """(1/n) sum_t c[t] c[t + k] for k = 0..max_lag, c the series less its
    mean: the inverse transform of |y.rfft(size)|^2 at size = the
    ``_fft_length`` of n + max_lag, from which on the wrapped lag k - size
    lies below -(n - 1), outside c.  Bin 0 is zeroed, since c sums to zero;
    the centred spectrum is the one periodic differences and the
    periodogram read at their own lengths.  One forward and one inverse
    transform at every n."""
    size = _fft_length(len(y) + max_lag)
    power = np.abs(y.rfft(size)) ** 2
    power[0] = 0.0
    return np.fft.irfft(power, size)[: max_lag + 1] / len(y)


def causal_apply(y: Series, coeffs: Taps) -> np.ndarray:
    """z[t] = sum_{m=0}^{min(t, M)} coeffs[m] * y[t-m] (zero pre-sample).

    Two plain arrays are taken too, as ``Series(y)`` and ``Taps(coeffs)``:
    ``perfbench/scaling.py`` times this function on arrays (ROADMAP item 1).
    """
    if not isinstance(coeffs, Taps):
        y, coeffs = Series(y), Taps(coeffs)
    return convolve(y, coeffs)


def two_sided_apply_zero(y: Series, weights: Taps) -> np.ndarray:
    """z[t] = sum_{m=-M}^{M} K(m) * y[t-m], out-of-range samples zero, with
    the kernel at its own lags.  The FFT path transforms at the 5-smooth
    length from n + M, not from n + 2M.
    """
    return convolve(y, weights)


def two_sided_apply_periodic(y: Series, weights) -> np.ndarray:
    """z[t] = sum_{m=-M}^{M} K(m) * y[(t-m) mod n], with the kernel at its
    own lags.  At every n and window length this is the circular product of
    the module docstring: the series' memoised ``rfft()`` times the kernel's
    memoised ``spectrum(n)``, and one ``irfft`` at n.  ``weights`` is a
    kernel or an operand known only by its ``spectrum(n)``, such as the
    untruncated ``exactops.ExactOperator``, which this product applies
    exactly.
    """
    n = len(y)
    with np.errstate(over="ignore", invalid="ignore"):  # as in convolve
        return np.fft.irfft(y.rfft() * weights.spectrum(n), n)


def ar_recurse(y: Series, phi) -> Series:
    """out[t] = y[t] + sum_i phi[i] * out[t-1-i] with zero initial history,
    sampled like ``y``; ValueError if it overflows.  ``phi`` is the AR
    coefficients, a sequence of numbers."""
    phi = [float(v) for v in phi]
    p = len(phi)
    out = []
    for t, acc in enumerate(y.values.tolist()):
        for i in range(min(p, t)):
            acc += phi[i] * out[t - 1 - i]
        out.append(acc)
    return y.with_values(out)
