"""The generalized hypergeometric series 1F2 and the kernel integral E(m) in
closed form through it: a test oracle for the exact-kernel routes at lags
0-4, independent of quadrature.

E(m) = int_0^pi x^a e^{imx} dx has real and imaginary parts in 1F2 values at
z = -(pi m / 2)^2.  That argument grows like m^2, and the alternating sum
cancels catastrophically beyond |z| ~ 40, so the series serves |m| <= 4 only.
"""

import math

# Beyond |z| ~ 40 the alternating series loses more than 6 digits to
# cancellation in double precision.
Z_MAX = 40.0

_EPS_REL = 1e-16
_MAX_TERMS = 10_000


def _check_lower_param(name: str, value: float) -> None:
    if value <= 0.0 and value == math.floor(value):
        raise ValueError(
            f"hypergeometric lower parameter {name}={value:g} is a nonpositive integer"
        )


def hyp1f2(a: float, b: float, c: float, z: float) -> float:
    """Generalized hypergeometric series 1F2(a; b, c; z) for real z, |z| <= 40.

    Terms follow the recurrence t_{k+1} = t_k * (a+k) z / ((b+k)(c+k)(k+1))
    and are accumulated with compensated (Kahan) summation.  Summation stops
    once |t_k| < 1e-16 * |sum| for two consecutive k with k >= 8.  Raises
    ValueError when b or c is zero or a negative integer, where the series
    is undefined, and RuntimeError if it has not converged after 10,000
    terms.
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
    raise RuntimeError(f"1F2 series did not converge within {_MAX_TERMS} terms (z={z:g})")


def series_integrals(order: float, m: int) -> complex:
    """E(m) from the 1F2 series; 0 <= m <= 4."""
    z = -(math.pi * math.pi) * (m * m) / 4.0
    re = math.pi ** (order + 1.0) / (order + 1.0) * hyp1f2(
        (order + 1.0) / 2.0, 0.5, (order + 3.0) / 2.0, z
    )
    im = math.pi ** (order + 2.0) * m / (order + 2.0) * hyp1f2(
        (order + 2.0) / 2.0, 1.5, (order + 4.0) / 2.0, z
    )
    return complex(re, im)
