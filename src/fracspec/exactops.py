"""Exact fractional differences: two-sided kernels whose frequency response
is an exact power law on the principal band.

The kernel of order alpha at integer lag m is the inverse discrete-time
Fourier transform of (i*x)^alpha on x in [-pi, pi].  Every weight comes from
one complex integral:

    E(m) = int_0^pi x^alpha e^{imx} dx,   m >= 0,
    K_alpha(+-m) = (cos(pi*alpha/2) Re E(m) -+ sin(pi*alpha/2) Im E(m)) / pi.

Windows take E from one of two routes:

- |m| < 12: Gauss-Legendre quadrature on half-period panels, where each
  node's phase is k pi plus a fixed offset, so one prefix sum serves every
  lag up to the largest asked for, in O(max lag);
- |m| >= 12: the large-lag asymptotic expansion of E about its endpoints,
  one vectorised pass over all lags in real arithmetic.

Quadrature is also the one oracle.  Construction runs it once over every
lag 0..M and checks the asymptotic expansion against it at every lag from
12 to M, both signs, failing loudly if a weight is off by more than
CROSS_CHECK_TOL * max(1, |K|), relative because weights grow like pi^alpha.
A cold window costs O(M): under 1 ms at M = 256, 35-40 ms at M = 1e5
(2-vCPU VM).  The routes are private; :func:`exact_kernel_window` is the one
public source of weights.  Windows and the series they difference are
``_kernels`` types, and ``_kernels`` forms every transform of both.
"""

import math

import numpy as np

from . import _kernels
from ._kernels import KernelWindow, Series, _real, _whole
from .errors import ConsistencyError

__all__ = [
    "KernelWindow",
    "exact_kernel_window",
    "exact_difference",
    "ASYMPTOTIC_MIN_LAG",
    "CROSS_CHECK_TOL",
    "HALF_WIDTH_CAP",
    "ORDER_MAX",
]

ASYMPTOTIC_MIN_LAG = 12
CROSS_CHECK_TOL = 1e-8
# A cold half-width-1e5 build takes about 0.06 s and peaks at 16 MB traced,
# 51 MB RSS with the interpreter and numpy (fresh process, 2-vCPU VM).
HALF_WIDTH_CAP = 10**5
# Up to order 41.5 the asymptotic route agrees with quadrature at lag 12 to
# 2.3e-12 relative; from order 44.55 the cross-check fails at every
# half-width from 12.  Below the bound no route overflows.
ORDER_MAX = 40

# Terms of the asymptotic expansion.  Term k+1 is term k times
# |k - order| / (m pi), so at m = 12 the smallest term, near k = 12 pi, is
# about 40! / (12 pi)^40 ~ 7e-16 of the first; larger lags reach double
# precision in fewer terms.
_ASYMPTOTIC_TERMS = 40

# 16-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(16):
# it is symmetric about 0, so the positive nodes and their weights define it.
_GL_NODES, _GL_WEIGHTS = (np.r_[sign * np.flip(half), half] for sign, half in (
    (-1.0, [0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
            0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499]),
    (1.0, [0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
           0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176]),
))

# The rule on the unit panel of u = m x / pi: nodes tau in (0, 1), and the
# weights (w/2) cos(pi tau) and (w/2) sin(pi tau) as two columns.
_UNIT_TAU = (1.0 + _GL_NODES) / 2.0
_UNIT_PHASE = _GL_WEIGHTS[:, None] / 2.0 * np.c_[np.cos(math.pi * _UNIT_TAU),
                                                 np.sin(math.pi * _UNIT_TAU)]
# The rule on the panels [a, 2a], a = 1/16, 1/8, 1/4, 1/2: nodes a (1 + tau)
# and weights a (w/2) e^{i pi u}.
_HEAD_NODES = np.outer(2.0 ** np.arange(-4, 0), 1.0 + _UNIT_TAU).ravel()
_HEAD_WEIGHTS = (np.outer(2.0 ** np.arange(-4, 0), _GL_WEIGHTS / 2.0).ravel()
                 * np.exp(1j * math.pi * _HEAD_NODES))

# (i pi/16)^j / j!, the Taylor coefficients of e^{i pi u} at u = 1/16; the
# last is below 1e-22 of the first.
_STUB_TAYLOR = np.cumprod(np.r_[1.0, 1j * math.pi / 16.0 / np.arange(1, 16)])


def sinpi(x: float) -> float:
    """sin(pi*x) with exact range reduction (exact zeros at integers)."""
    n = round(x)
    r = x - n  # exact
    if r == 0.0:
        return 0.0
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def cospi(x: float) -> float:
    """cos(pi*x) with exact range reduction (exact zeros at half-integers)."""
    n = round(x)
    r = x - n
    if abs(r) == 0.5:
        return 0.0
    c = math.cos(math.pi * r)
    return -c if n % 2 else c


def _kernel_pairs(order: float, e):
    """(K(+m), K(-m)) from E(m); scalars or arrays."""
    cos_half, sin_half = cospi(order / 2.0), sinpi(order / 2.0)
    pos = (cos_half * e.real - sin_half * e.imag) / math.pi
    neg = (cos_half * e.real + sin_half * e.imag) / math.pi
    return pos, neg


def _quadrature_integrals(order: float, top: int) -> np.ndarray:
    """E(0), ..., E(top) by panel quadrature, O(top) work.

    E(0) = pi^(order+1) / (order+1).  For m >= 1, x = pi u / m gives
    E(m) = (pi/m)^(order+1) int_0^m u^order e^{i pi u} du.  On [0, 1/16] the
    Taylor series of e^{i pi u} is integrated term by term; panels doubling
    from 1/16 to 1 and the unit panels [k, k+1], k < m, take the 16-point
    Gauss-Legendre rule.  At node k + tau the phase is exactly
    (-1)^k e^{i pi tau}, so with g(k) = sum_t (w_t/2) e^{i pi tau_t} (k + tau_t)^order,

        E(m) = (pi/m)^(order+1) [H + sum_{k=1}^{m-1} (-1)^k g(k)],

    where H, the stub and the doubling panels, does not depend on m: one
    prefix sum of g serves every lag.
    """
    powers = np.add.outer(np.arange(1.0, top), _UNIT_TAU)
    np.power(powers, order, out=powers)
    g = powers @ _UNIT_PHASE  # (Re g(k), Im g(k)) by rows
    del powers  # 128 bytes per lag, the largest array of a build
    g[::2] *= -1.0  # (-1)^k, k = 1, 3, ...
    sums = np.cumsum(np.vstack(((0.0, 0.0), g)), axis=0)
    taylor = np.sum(_STUB_TAYLOR / (np.arange(_STUB_TAYLOR.size) + order + 1.0))
    head = 16.0 ** -(order + 1.0) * taylor + _HEAD_NODES**order @ _HEAD_WEIGHTS
    scale = math.pi ** (order + 1.0) * np.arange(1.0, top + 1) ** -(order + 1.0)
    out = np.empty(top + 1, dtype=np.complex128)
    out[0] = math.pi ** (order + 1.0) / (order + 1.0)
    out.real[1:] = scale * (head.real + sums[:, 0])
    out.imag[1:] = scale * (head.imag + sums[:, 1])
    return out


def _asymptotic_integrals(order: float, lags: np.ndarray) -> np.ndarray:
    """E(m) at every lag m >= ASYMPTOTIC_MIN_LAG, vectorised.

    E(m) is the integral over [0, inf), taken in closed form, minus the tail
    beyond pi, integrated by parts:

        E(m) = Gamma(a+1) e^{i pi (a+1)/2} m^-(a+1)
               + (-1)^m pi^a / m sum_k (-i)^(k+1) a_k,
        a_0 = 1,  a_k = a_{k-1} (k - 1 - a) / (m pi).

    The sum is asymptotic, not convergent: terms shrink only while
    k - a < m pi.  It is cut after _ASYMPTOTIC_TERMS terms; at integer
    orders a_k vanishes and the sum is exact.  The real products a_k add
    into four sums by k mod 4.
    """
    m = lags.astype(np.float64)
    mpi = math.pi * m
    a = np.ones_like(m)
    sums = np.zeros((4, m.size))  # sum of a_k over k = 0, 1, 2, 3 mod 4
    sums[0] = a
    for k in range(1, _ASYMPTOTIC_TERMS):
        step = k - 1.0 - order
        if step == 0.0:
            break  # integer order: a_k and every later term vanish
        a *= step / mpi
        sums[k % 4] += a
    rotation = complex(cospi((order + 1.0) / 2.0), sinpi((order + 1.0) / 2.0))
    head = math.gamma(order + 1.0) * rotation * m ** -(order + 1.0)
    # (-i)^(k+1) is -i, -1, i, 1 at k = 0, 1, 2, 3 mod 4
    tail = (sums[3] - sums[1] + 1j * (sums[2] - sums[0])) * math.pi**order / m
    return head + np.where(lags % 2 == 1, -tail, tail)


def _check(order: float, got, e: np.ndarray) -> None:
    """Raise ConsistencyError unless the window's weights ``got``, the pair
    (K(+m), K(-m)) over lags m = 12, 13, ..., match the kernel of quadrature's
    E(m) in ``e`` within CROSS_CHECK_TOL * max(1, |K|), one sign at a time."""
    for sign, have, want in zip((1, -1), got, _kernel_pairs(order, e)):
        tol = np.abs(want)
        np.maximum(tol, 1.0, out=tol)
        tol *= CROSS_CHECK_TOL
        diff = np.abs(np.subtract(have, want, out=want), out=want)
        if not (diff <= tol).all():
            worst = int(np.argmax(diff / tol))
            raise ConsistencyError(
                f"asymptotic/quadrature kernel mismatch at order={order:g}, "
                f"m={sign * (ASYMPTOTIC_MIN_LAG + worst)}: "
                f"|diff|={diff[worst]:.3e} > tol={tol[worst]:.3e}"
            )


_window_cache = _kernels.BoundedCache()  # (order, half_width) -> KernelWindow


def _build_window(order: float, half_width: int) -> KernelWindow:
    weights = np.empty(2 * half_width + 1)
    pos, neg = weights[half_width:], weights[half_width::-1]  # K(0..M), K(0..-M)
    lo = ASYMPTOTIC_MIN_LAG
    quadrature = _quadrature_integrals(order, half_width)
    pos[:lo], neg[:lo] = _kernel_pairs(order, quadrature[:lo])
    if half_width >= lo:
        large = np.arange(lo, half_width + 1)
        pos[lo:], neg[lo:] = _kernel_pairs(order, _asymptotic_integrals(order, large))
        _check(order, (pos[lo:], neg[lo:]), quadrature[lo:])
    return KernelWindow(weights)


def exact_kernel_window(order: float, half_width: int) -> KernelWindow:
    """Kernel window of the given order, truncated to |m| <= half_width.

    K(m) and K(-m) both come from E(m) = int_0^pi x^order e^{imx} dx, taken
    by quadrature at |m| < 12 and by the large-lag asymptotic expansion at
    |m| >= 12, so a cold build costs O(half_width).  One quadrature pass over
    every lag is the oracle: each asymptotic weight, both signs, must match
    it within CROSS_CHECK_TOL * max(1, |K|), or construction raises
    :class:`ConsistencyError`.  ``order`` may not exceed ``ORDER_MAX`` nor
    ``half_width`` ``HALF_WIDTH_CAP``.  Windows are immutable and cached by
    the exact (order, half_width) in a :class:`_kernels.BoundedCache`, which
    keeps the last ``_kernels.CACHE_BOUND`` = 8 built.  Each window memoises
    its one transform, :meth:`KernelWindow.spectrum`, by size, so the
    spectra go with it: the zero boundary's FFT path, every periodic
    difference and ``spectral.operator_response``'s fold read it.
    """
    order = _real(order, "kernel order")
    if not order > -1.0:
        raise ValueError("kernel order must exceed -1")
    if order > ORDER_MAX:
        raise ValueError(f"kernel order must not exceed {ORDER_MAX}, got {order:g}")
    half_width = _whole(half_width, "half_width")
    if half_width < 1:
        raise ValueError("half_width must be a positive integer")
    if half_width > HALF_WIDTH_CAP:
        raise ValueError(f"half_width exceeds cap {HALF_WIDTH_CAP}")
    return _window_cache.get_or_build(
        (order, half_width), lambda: _build_window(order, half_width)
    )


def exact_difference(y: Series, window: KernelWindow, boundary: str = "zero") -> Series:
    """Apply the exact fractional difference z_t = sum_m K(m) y(t - m*step).

    ``boundary`` resolves samples outside the observed range: ``"zero"``
    treats them as zero, ``"periodic"`` wraps indices modulo the length.
    The operator carries no step^order factor; the step enters only through
    the frequency axis of the response target.  A periodic difference is
    the length-n circular product of ``_kernels``, which reads the series'
    memoised ``rfft()``; a zero-boundary one on the FFT path reads its
    memoised ``spectrum()`` at the 5-smooth length from n + half-width,
    which a GL difference of that truncation shares.  ValueError if an
    output leaves the double-precision range.
    """
    if boundary == "zero":
        values = _kernels.two_sided_apply_zero(y, window)
    elif boundary == "periodic":
        values = _kernels.two_sided_apply_periodic(y, window)
    else:
        raise ValueError(f"boundary must be 'zero' or 'periodic', got {boundary!r}")
    return y.with_values(values)
