"""Real-argument special functions used by the kernel formulas and response targets.

Everything here is scalar and pure: exactly reduced sinpi and cospi, and
the generalized hypergeometric series 1F2.  The gamma function itself is
``math.gamma``.
"""

import math

from .errors import ConvergenceError

__all__ = [
    "hyp1f2",
    "sinpi",
    "cospi",
]


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


def _check_lower_param(name: str, value: float) -> None:
    if value <= 0.0 and value == math.floor(value):
        raise ValueError(
            f"hypergeometric lower parameter {name}={value:g} is a nonpositive integer"
        )


# Beyond |z| ~ 40 the alternating series loses more than 6 digits to
# cancellation in double precision; callers needing larger |z| should
# integrate instead (see exactops quadrature).
Z_MAX = 40.0

_EPS_REL = 1e-16
_MAX_TERMS = 10_000


def hyp1f2(a: float, b: float, c: float, z: float) -> float:
    """Generalized hypergeometric series 1F2(a; b, c; z) for real z, |z| <= 40.

    Terms follow the recurrence t_{k+1} = t_k * (a+k) z / ((b+k)(c+k)(k+1))
    and are accumulated with compensated (Kahan) summation.  Summation stops
    once |t_k| < 1e-16 * |sum| for two consecutive k with k >= 8.  Raises
    ValueError when b or c is zero or a negative integer, where the series
    is undefined.
    """
    _check_lower_param("b", b)
    _check_lower_param("c", c)
    z = float(z)
    if abs(z) > Z_MAX:
        raise ValueError(f"|z|={abs(z):g} exceeds series domain |z| <= {Z_MAX:g}")
    term = 1.0
    total = 0.0
    comp = 0.0  # Kahan compensation
    small_streak = 0
    for k in range(_MAX_TERMS):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if k >= 8 and abs(term) < _EPS_REL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
        term *= (a + k) * z / ((b + k) * (c + k) * (k + 1))
    raise ConvergenceError(
        f"1F2 series did not converge within {_MAX_TERMS} terms (z={z:g})"
    )
