"""Exact fractional differences: two-sided kernels whose frequency response
is an exact power law on the principal band.

The kernel of order alpha at integer lag m is the inverse discrete-time
Fourier transform of (i*x)^alpha on x in [-pi, pi]:

    K_alpha(m) = cos(pi*alpha/2)/pi * I_cos(m) - sin(pi*alpha/2)/pi * I_sin(m),

    I_cos(m) = int_0^pi x^alpha cos(m x) dx,   I_sin(m) = int_0^pi x^alpha sin(m x) dx.

Windows take each lag from one of two routes:

- |m| < 12: oscillation-aware Gauss-Legendre quadrature, O(m) per lag;
- |m| >= 12: the large-lag asymptotic expansion of the Fourier integral
  about its endpoints, one vectorised pass over all lags.

A window therefore costs O(M).  The integrals also have a closed form in
1F2 hypergeometric values at z = -(pi*m/2)^2, summed as a series; its
argument grows like m^2 and the alternating sum cancels catastrophically
beyond |z| ~ 40, so it serves |m| <= 4 only, as an oracle.  Construction
checks quadrature against the series at every lag up to 4, and the
asymptotic expansion against quadrature at a fixed sample of lags (12-16
plus eight log-spaced lags up to M), both signs, and fails loudly if they
disagree.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ConsistencyError
from .glops import Series
from .specfun import HypergeometricParams, cospi, hyp1f2, sinpi

__all__ = [
    "KernelWindow",
    "exact_kernel_series",
    "exact_kernel_quadrature",
    "exact_kernel_window",
    "exact_difference",
    "SERIES_MAX_LAG",
    "ASYMPTOTIC_MIN_LAG",
    "CROSS_CHECK_TOL",
    "HALF_WIDTH_CAP",
]

SERIES_MAX_LAG = 4
ASYMPTOTIC_MIN_LAG = 12
CROSS_CHECK_TOL = 1e-8
# The cross-check quadrature at lag half_width evaluates 16 * (half_width + 3)
# nodes at once.  On a 2-vCPU Xeon VM a cold half-width-1e5 build took 0.17 s
# at 112 MB peak RSS; 1e6 took 2.0 s at 813 MB.
HALF_WIDTH_CAP = 10**5

# Terms of the asymptotic expansion.  Term k+1 is term k times
# |k - order| / (m pi), so at m = 12 the smallest term, near k = 12 pi, is
# about 40! / (12 pi)^40 ~ 7e-16 of the first; larger lags reach double
# precision in fewer terms.
_ASYMPTOTIC_TERMS = 40

# FFT lengths whose weight spectra one window keeps; asking for another
# drops the oldest.  A series of fixed length needs one or two.
_SPECTRA_PER_WINDOW = 8

# 16-point Gauss-Legendre rule: one panel per half-period of the oscillation.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _check_order(order: float) -> float:
    order = float(order)
    if not math.isfinite(order):
        raise ValueError(f"kernel order must be finite, got {order}")
    if not (order > -1.0):
        raise ValueError("kernel order must exceed -1")
    return order


@dataclass(frozen=True, eq=False)
class KernelWindow:
    """Truncated two-sided kernel K(-M)..K(+M) of an exact fractional difference.

    Weights depend only on the order and the lag; the sampling step enters
    the operator through the frequency axis, never through the weights.
    ``len(window)`` is the number of weights, 2 * half_width + 1.
    """

    order: float
    half_width: int
    weights: np.ndarray
    offsets: np.ndarray = field(init=False)
    _spectra: dict = field(init=False, repr=False, default_factory=dict)
    _spectra_lock: threading.Lock = field(init=False, repr=False, default_factory=threading.Lock)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if self.half_width < 1:
            raise ValueError("half_width must be a positive integer")
        if w.shape != (2 * self.half_width + 1,):
            raise ValueError("weights must have length 2*half_width + 1")
        if not np.isfinite(w).all():
            raise ValueError("kernel weights must be finite")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        off = np.arange(-self.half_width, self.half_width + 1)
        off.flags.writeable = False
        object.__setattr__(self, "offsets", off)

    def weight(self, m: int) -> float:
        if abs(m) > self.half_width:
            raise ValueError(f"lag {m} outside window half-width {self.half_width}")
        return float(self.weights[m + self.half_width])

    def __len__(self) -> int:
        return self.weights.size

    def spectrum(self, size: int) -> np.ndarray:
        """``np.fft.rfft(weights, size)``, read-only.

        The spectra of the last ``_SPECTRA_PER_WINDOW`` lengths asked for
        are kept on the window, so they go when the window does.
        """
        with self._spectra_lock:
            spectrum = self._spectra.get(size)
        if spectrum is None:
            spectrum = np.fft.rfft(self.weights, size)
            spectrum.flags.writeable = False
            with self._spectra_lock:
                spectrum = self._spectra.setdefault(size, spectrum)
                while len(self._spectra) > _SPECTRA_PER_WINDOW:
                    del self._spectra[next(iter(self._spectra))]
        return spectrum


def _kernel_pair(order: float, ic, isn):
    """(K(+m), K(-m)) from I_cos(m) and I_sin(m); scalars or arrays."""
    cos_half = cospi(order / 2.0)
    sin_half = sinpi(order / 2.0)
    pos = (cos_half * ic - sin_half * isn) / math.pi
    neg = (cos_half * ic + sin_half * isn) / math.pi
    return pos, neg


def _series_parts(order: float, m: int) -> tuple[float, float]:
    """(I_cos(m), I_sin(m)) from the 1F2 series; 0 <= m <= SERIES_MAX_LAG."""
    z = -(math.pi * math.pi) * (m * m) / 4.0
    ic = math.pi ** (order + 1.0) / (order + 1.0) * hyp1f2(
        HypergeometricParams((order + 1.0) / 2.0, 0.5, (order + 3.0) / 2.0), z
    )
    isn = (
        math.pi ** (order + 2.0)
        * m
        / (order + 2.0)
        * hyp1f2(HypergeometricParams((order + 2.0) / 2.0, 1.5, (order + 4.0) / 2.0), z)
    )
    return ic, isn


def exact_kernel_series(order: float, m: int) -> float:
    """Kernel weight K_order(m) via the hypergeometric series.

    Only valid for |m| <= 4, where it is the oracle that window construction
    checks quadrature against; beyond that the series argument leaves the
    accurate domain and callers must use :func:`exact_kernel_quadrature`.
    """
    order = _check_order(order)
    m = int(m)
    if abs(m) > SERIES_MAX_LAG:
        raise ValueError(
            f"|m|={abs(m)} outside series domain |m| <= {SERIES_MAX_LAG}; "
            "use exact_kernel_quadrature"
        )
    pos, neg = _kernel_pair(order, *_series_parts(order, abs(m)))
    return neg if m < 0 else pos


def _stub_integrals(order: float, eps: float, m: int) -> tuple[float, float]:
    """Analytic integrals of x^order cos(mx), x^order sin(mx) on [0, eps].

    Taylor expansion of the trig factor; requires m*eps small (callers keep
    it below ~0.2 so a dozen terms reach machine precision).
    """
    me = m * eps
    me2 = me * me
    # cos: sum_k (-1)^k (m eps)^(2k) eps^(order+1) / ((2k)! (2k+order+1))
    ic = 0.0
    term = 1.0
    k = 0
    while True:
        contrib = term / (2 * k + order + 1.0)
        ic += contrib
        if abs(contrib) < 1e-18 * abs(ic):
            break
        term *= -me2 / ((2 * k + 1.0) * (2 * k + 2.0))
        k += 1
        if k > 60:
            break
    ic *= eps ** (order + 1.0)
    # sin: sum_k (-1)^k m^(2k+1) eps^(2k+order+2) / ((2k+1)! (2k+order+2))
    isn = 0.0
    term = me
    k = 0
    while m != 0:
        contrib = term / (2 * k + order + 2.0)
        isn += contrib
        if abs(contrib) < 1e-18 * abs(isn):
            break
        term *= -me2 / ((2 * k + 2.0) * (2 * k + 3.0))
        k += 1
        if k > 60:
            break
    isn *= eps ** (order + 1.0)
    return ic, isn


def _panel_edges(eps: float, m: int) -> np.ndarray:
    """Panel breakpoints on [eps, pi]: geometric doubling out of the
    singularity, then half-period-aligned panels."""
    if m == 0:
        edges = [eps]
        while edges[-1] < math.pi:
            edges.append(min(edges[-1] * 2.0, math.pi))
        return np.array(edges)
    h = math.pi / m
    # eps = h/16, so doubling lands exactly on the first half-period edge
    edges = [eps, 2 * eps, 4 * eps, 8 * eps]
    edges.extend(h * k for k in range(1, m + 1))
    return np.array(edges)


def _oscillatory_integrals(order: float, m: int) -> tuple[float, float]:
    """(int_0^pi x^order cos(mx) dx, int_0^pi x^order sin(mx) dx), m >= 0."""
    if m == 0:
        eps = math.pi * 2.0**-52
    else:
        eps = math.pi / (16.0 * m)
    ic, isn = _stub_integrals(order, eps, m)
    edges = _panel_edges(eps, m)
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    # nodes: (panels, 16)
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    w = half[:, None] * _GL_WEIGHTS[None, :]
    xa = x**order
    ic += float(np.sum(w * xa * np.cos(m * x)))
    if m != 0:
        isn += float(np.sum(w * xa * np.sin(m * x)))
    return ic, isn


def exact_kernel_quadrature(order: float, m: int) -> float:
    """Kernel weight K_order(m) as the inverse transform of (i x)^order.

    Gauss-Legendre panels aligned to half-periods of the oscillation, with
    an analytic stub absorbing the x^order singularity at zero.  Valid for
    any lag; windows take lags below 12 from it, and it is the oracle for
    the asymptotic route.
    """
    order = _check_order(order)
    m = int(m)
    pos, neg = _kernel_pair(order, *_oscillatory_integrals(order, abs(m)))
    return neg if m < 0 else pos


def _asymptotic_integrals(
    order: float, lags: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(I_cos(m), I_sin(m)) at every lag m >= ASYMPTOTIC_MIN_LAG, vectorised.

    E(m) = int_0^pi x^a e^{imx} dx is the integral over [0, inf), taken in
    closed form, minus the tail beyond pi, integrated by parts:

        E(m) = Gamma(a+1) e^{i pi (a+1)/2} m^-(a+1)
               + (-1)^m sum_k c_k pi^(a-k) (i m)^-(k+1),
        c_0 = 1,  c_{k+1} = -(a - k) c_k.

    The sum is asymptotic, not convergent: term k+1 is term k times
    (k - a) / (i m pi), so terms shrink only while k - a < m pi.  A lag
    stops at its smallest term or after _ASYMPTOTIC_TERMS terms; at integer
    orders c_k vanishes and the sum is exact.
    """
    m = lags.astype(np.float64)
    rotation = complex(cospi((order + 1.0) / 2.0), sinpi((order + 1.0) / 2.0))
    head = math.gamma(order + 1.0) * rotation * m ** -(order + 1.0)
    mpi = math.pi * m
    term = math.pi**order / (1j * m)
    tail = term
    for k in range(1, _ASYMPTOTIC_TERMS):
        step = k - 1.0 - order  # c_k / c_{k-1}
        if step == 0.0:
            break  # integer order: c_k and every later term vanish
        # a zero ratio ends a lag's sum for good where its terms would grow
        term = term * np.where(step < mpi, step / mpi, 0.0) / 1j
        tail = tail + term
    e = head + np.where(lags % 2 == 1, -tail, tail)
    return e.real, e.imag


def _cross_check_lags(half_width: int) -> list[int]:
    """Asymptotic-route lags compared with quadrature: the first five, where
    the expansion is least accurate, and eight log-spaced up to half_width.
    Their quadrature costs O(half_width) in total."""
    lo = ASYMPTOTIC_MIN_LAG
    first = range(lo, min(half_width, lo + 4) + 1)
    spread = []
    if half_width > lo + 4:
        spread = np.geomspace(lo + 5, half_width, 8).round().astype(int).tolist()
    return sorted(set(first).union(spread))


_window_cache: dict[tuple[float, int], KernelWindow] = {}
_window_lock = threading.Lock()


def _build_window(order: float, half_width: int) -> KernelWindow:
    mmax = half_width
    weights = np.empty(2 * mmax + 1)

    def store(m, ic, isn):
        weights[mmax + m], weights[mmax - m] = _kernel_pair(order, ic, isn)

    def check(route: str, m: int, ic, isn):
        # the stored K(+m), K(-m) against the oracle's integrals at lag m
        want_pos, want_neg = _kernel_pair(order, ic, isn)
        err = max(abs(weights[mmax + m] - want_pos), abs(weights[mmax - m] - want_neg))
        if err > CROSS_CHECK_TOL:
            raise ConsistencyError(
                f"{route} kernel mismatch at order={order:g}, "
                f"m={m}: |diff|={err:.3e} > {CROSS_CHECK_TOL:g}"
            )

    for m in range(0, min(mmax, ASYMPTOTIC_MIN_LAG - 1) + 1):
        store(m, *_oscillatory_integrals(order, m))
    for m in range(0, min(mmax, SERIES_MAX_LAG) + 1):
        check("quadrature/series", m, *_series_parts(order, m))
    if mmax >= ASYMPTOTIC_MIN_LAG:
        lags = np.arange(ASYMPTOTIC_MIN_LAG, mmax + 1)
        store(lags, *_asymptotic_integrals(order, lags))
        for m in _cross_check_lags(mmax):
            check("asymptotic/quadrature", m, *_oscillatory_integrals(order, m))
    return KernelWindow(order, half_width, weights)


def exact_kernel_window(order: float, half_width: int) -> KernelWindow:
    """Kernel window of the given order, truncated to |m| <= half_width.

    Lags |m| < 12 come from quadrature and |m| >= 12 from the large-lag
    asymptotic expansion, so a cold build costs O(half_width).  Two oracles
    check the routes within 1e-8, or construction raises
    :class:`ConsistencyError`: the hypergeometric series at every lag
    |m| <= 4, and quadrature at a fixed sample of asymptotic lags (12-16
    plus eight log-spaced up to half_width), both signs.  ``half_width``
    may not exceed ``HALF_WIDTH_CAP``.  Windows are cached by (order rounded to
    1e-12, half_width) and immutable; each memoises its weight spectra
    (:meth:`KernelWindow.spectrum`), so clearing the cache drops them too.
    """
    order = _check_order(order)
    half_width = int(half_width)
    if half_width < 1:
        raise ValueError("half_width must be a positive integer")
    if half_width > HALF_WIDTH_CAP:
        raise ValueError(f"half_width exceeds cap {HALF_WIDTH_CAP}")
    key = (round(order, 12), half_width)
    with _window_lock:
        window = _window_cache.get(key)
    if window is None:
        try:
            window = _build_window(order, half_width)
        except OverflowError:
            raise ValueError(f"exact kernel of order {order:g} overflows") from None
        with _window_lock:
            window = _window_cache.setdefault(key, window)
    return window


def exact_difference(y: Series, window: KernelWindow, boundary: str = "zero") -> Series:
    """Apply the exact fractional difference z_t = sum_m K(m) y(t - m*step).

    ``boundary`` resolves samples outside the observed range: ``"zero"``
    treats them as zero, ``"periodic"`` wraps indices modulo the length.
    The operator carries no step^order factor; the step enters only through
    the frequency axis of the response target.
    """
    if boundary == "zero":
        values = _kernels.two_sided_apply_zero(y.values, window)
    elif boundary == "periodic":
        values = _kernels.two_sided_apply_periodic(y.values, window)
    else:
        raise ValueError(f"boundary must be 'zero' or 'periodic', got {boundary!r}")
    return y.with_values(values)
