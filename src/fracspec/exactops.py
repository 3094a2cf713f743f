"""Exact fractional differences: two-sided kernels whose frequency response
is an exact power law on the principal band.

The kernel of order alpha at integer lag m is

    K_alpha(m) = cos(pi*alpha/2) * Kp(m) + sin(pi*alpha/2) * Km(m)

where Kp and Km are 1F2 hypergeometric values at z = -(pi*m/2)^2.
Equivalently, K_alpha is the inverse discrete-time Fourier transform of
(i*x)^alpha on x in [-pi, pi]:

    K_alpha(m) = cos(pi*alpha/2)/pi * I_cos(m) - sin(pi*alpha/2)/pi * I_sin(m),

    I_cos(m) = int_0^pi x^alpha cos(m x) dx,   I_sin(m) = int_0^pi x^alpha sin(m x) dx.

The series route is accurate only for |m| <= 4 (its argument grows like m^2
and the alternating sum cancels catastrophically beyond |z| ~ 40); larger
lags use oscillation-aware Gauss-Legendre quadrature.  Window construction
evaluates both routes on the overlap and fails loudly if they disagree.
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
    "CROSS_CHECK_TOL",
]

SERIES_MAX_LAG = 4
CROSS_CHECK_TOL = 1e-8

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
    """

    order: float
    half_width: int
    weights: np.ndarray
    offsets: np.ndarray = field(init=False)

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


def _series_parts(order: float, m: int) -> tuple[float, float]:
    """(Kp, Km) from the 1F2 series; m may be signed, |m| <= SERIES_MAX_LAG."""
    z = -(math.pi * math.pi) * (m * m) / 4.0
    kp = math.pi**order / (order + 1.0) * hyp1f2(
        HypergeometricParams((order + 1.0) / 2.0, 0.5, (order + 3.0) / 2.0), z
    )
    km = (
        -(math.pi ** (order + 1.0))
        * m
        / (order + 2.0)
        * hyp1f2(HypergeometricParams((order + 2.0) / 2.0, 1.5, (order + 4.0) / 2.0), z)
    )
    return kp, km


def exact_kernel_series(order: float, m: int) -> float:
    """Kernel weight K_order(m) via the hypergeometric series route.

    Only valid for |m| <= 4; beyond that the series argument leaves the
    accurate domain and callers must use :func:`exact_kernel_quadrature`.
    """
    order = _check_order(order)
    m = int(m)
    if abs(m) > SERIES_MAX_LAG:
        raise ValueError(
            f"|m|={abs(m)} outside series domain |m| <= {SERIES_MAX_LAG}; "
            "use exact_kernel_quadrature"
        )
    kp, km = _series_parts(order, m)
    return cospi(order / 2.0) * kp + sinpi(order / 2.0) * km


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
    any lag; serves as the independent oracle for the series route.
    """
    order = _check_order(order)
    m = int(m)
    ic, isn = _oscillatory_integrals(order, abs(m))
    if m < 0:
        isn = -isn
    return (cospi(order / 2.0) * ic - sinpi(order / 2.0) * isn) / math.pi


_window_cache: dict[tuple[float, int], KernelWindow] = {}
_window_lock = threading.Lock()


def _build_window(order: float, half_width: int) -> KernelWindow:
    mmax = half_width
    weights = np.empty(2 * mmax + 1)
    cos_half = cospi(order / 2.0)
    sin_half = sinpi(order / 2.0)
    for m in range(0, mmax + 1):
        ic, isn = _oscillatory_integrals(order, m)
        quad_pos = (cos_half * ic - sin_half * isn) / math.pi
        quad_neg = (cos_half * ic + sin_half * isn) / math.pi
        if m <= SERIES_MAX_LAG:
            kp, km = _series_parts(order, m)
            ser_pos = cos_half * kp + sin_half * km
            ser_neg = cos_half * kp - sin_half * km
            err = max(abs(ser_pos - quad_pos), abs(ser_neg - quad_neg))
            if err > CROSS_CHECK_TOL:
                raise ConsistencyError(
                    f"series/quadrature kernel mismatch at order={order:g}, "
                    f"m={m}: |diff|={err:.3e} > {CROSS_CHECK_TOL:g}"
                )
            weights[mmax + m] = ser_pos
            weights[mmax - m] = ser_neg
        else:
            weights[mmax + m] = quad_pos
            weights[mmax - m] = quad_neg
    return KernelWindow(order, half_width, weights)


def exact_kernel_window(order: float, half_width: int) -> KernelWindow:
    """Kernel window of the given order, truncated to |m| <= half_width.

    Lags |m| <= 4 come from the hypergeometric series, larger lags from
    quadrature; on the overlap both routes are computed and must agree
    within 1e-8 or construction raises :class:`ConsistencyError`.  Windows
    are cached by (order rounded to 1e-12, half_width) and immutable.
    """
    order = _check_order(order)
    half_width = int(half_width)
    if half_width < 1:
        raise ValueError("half_width must be a positive integer")
    key = (round(order, 12), half_width)
    with _window_lock:
        window = _window_cache.get(key)
    if window is None:
        window = _build_window(order, half_width)
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
        values = _kernels.two_sided_apply_zero(y.values, window.weights)
    elif boundary == "periodic":
        values = _kernels.two_sided_apply_periodic(y.values, window.weights)
    else:
        raise ValueError(f"boundary must be 'zero' or 'periodic', got {boundary!r}")
    return y.with_values(values)
