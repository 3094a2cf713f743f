import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import gl_coefficients
from fracspec.exactops import cospi, sinpi
from series_oracle import Z_MAX, hyp1f2


def _binomial(d, m):
    """C(d, m) from the library's one binomial route: c_m = (-1)^m C(d, m)."""
    return (-1.0) ** m * gl_coefficients(d, m)[m]


# The library's gamma is math.gamma: exactops takes Gamma(order + 1) from it,
# and the binomial gamma form below is built on it.  These pin the behaviour
# relied on.
def test_gamma_poles_raise():
    for x in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(ValueError):
            math.gamma(x)


def test_gamma_overflow_raises():
    with pytest.raises(OverflowError):
        math.gamma(172.0)


def test_gamma_reflection_deep_negative():
    # 30 digits frozen from mpmath 1.3.0; below -171 the value underflows to
    # a zero carrying the sign of Gamma
    want = -1.44995439390774792776732880247e-65
    assert abs(math.gamma(-50.5) - want) <= 1e-13 * abs(want)
    assert math.copysign(1.0, math.gamma(-200.5)) == -1.0 and math.gamma(-200.5) == 0.0


def test_sinpi_cospi_exact_zeros():
    assert sinpi(3.0) == 0.0
    assert sinpi(-7.0) == 0.0
    assert cospi(0.5) == 0.0
    assert cospi(2.5) == 0.0
    assert cospi(1.0) == -1.0
    assert sinpi(0.5) == 1.0


def test_gen_binomial_base_cases():
    assert _binomial(0.37, 0) == 1.0
    assert _binomial(0.5, 1) == 0.5
    assert _binomial(0.5, 2) == -0.125


@settings(max_examples=200, deadline=None)
@given(
    d=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    m=st.integers(min_value=1, max_value=64),
)
def test_gen_binomial_pascal_identity(d, m):
    # C(d, m) = C(d-1, m) + C(d-1, m-1), which for c_m = (-1)^m C(d, m) reads
    # c_m(d) = c_m(d-1) - c_{m-1}(d-1).  Relative to the O(1) scale of the
    # recurrence products; the unit floor covers d within ~1e-6 of an
    # integer, where the coefficient itself cancels to near zero and no fp
    # route can hold 1e-12 of it
    lhs = gl_coefficients(d, m)[m]
    below = gl_coefficients(d - 1.0, m)
    rhs = below[m] - below[m - 1]
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def gen_binomial_gamma_form(d: float, m: int) -> float:
    """C(d, m) as the gamma quotient (-1)^(m-1) * d * G(m-d) / (G(1-d) G(m+1)).

    Oracle for ``gl_coefficients``, whose c_m is (-1)^m C(d, m) and comes
    from a product recurrence instead.  Requires d not a nonnegative integer
    when m >= 1 (otherwise G(1-d) or G(m-d) sits on a pole); m = 0 returns 1
    by convention.
    """
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    if m == 0:
        return 1.0
    if d >= 0.0 and d == math.floor(d):
        raise ValueError(f"gamma form undefined for nonnegative integer d={d:g}")
    sign = -1.0 if (m - 1) % 2 else 1.0
    return sign * d * math.gamma(m - d) / (math.gamma(1.0 - d) * math.gamma(m + 1.0))


@pytest.mark.parametrize("d", [0.1, -0.1, 0.5, -0.5, 0.9, -0.9, 1.5])
def test_gen_binomial_agrees_with_gamma_form(d):
    c = gl_coefficients(d, 30)
    for m in range(0, 31):
        a = (-1.0) ** m * c[m]
        b = gen_binomial_gamma_form(d, m)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-300)


def test_gamma_form_examples():
    assert gen_binomial_gamma_form(0.3, 1) == pytest.approx(0.3, rel=1e-13)
    assert gen_binomial_gamma_form(0.5, 2) == pytest.approx(-0.125, rel=1e-13)
    assert gen_binomial_gamma_form(-0.4, 3) == pytest.approx(_binomial(-0.4, 3), rel=1e-12)
    assert gen_binomial_gamma_form(0.7, 0) == 1.0


def test_gamma_form_rejects_nonnegative_integer_d():
    with pytest.raises(ValueError):
        gen_binomial_gamma_form(2.0, 3)


def test_hypergeometric_params_validation():
    with pytest.raises(ValueError, match="lower parameter b=0 is a nonpositive integer"):
        hyp1f2(1.0, 0.0, 2.0, 0.5)
    with pytest.raises(ValueError, match="lower parameter c=-2 is a nonpositive integer"):
        hyp1f2(1.0, 1.5, -2.0, 0.5)
    hyp1f2(1.0, 1.5, -2.5, 0.5)  # negative non-integer is fine


def test_hyp1f2_at_zero_is_one():
    assert hyp1f2(0.7, 0.5, 1.9, 0.0) == 1.0


def test_hyp1f2_reduces_to_0f1_closed_form():
    # with a = b the series is 0F1(; c; -x^2/4):
    #   c = 3/2 -> sin(x)/x,  c = 5/2 -> 3(sin x - x cos x)/x^3
    z = -math.pi**2 / 4.0
    got = hyp1f2(1.5, 1.5, 2.5, z)
    assert got == pytest.approx(3.0 / math.pi**2, rel=1e-12)
    for x in (1.0, 2.5, 4.0, 7.0, 10.0):  # |z| up to 25
        z = -x * x / 4.0
        got = hyp1f2(0.9, 0.9, 1.5, z)
        assert got == pytest.approx(math.sin(x) / x, rel=1e-10, abs=1e-12)
        got = hyp1f2(1.2, 1.2, 2.5, z)
        want = 3.0 * (math.sin(x) - x * math.cos(x)) / x**3
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_hyp1f2_against_extended_precision_oracle():
    # frozen from a 40-digit mpmath summation of the same series
    got = hyp1f2(0.75, 0.5, 1.75, -math.pi**2 / 4.0)
    assert got == pytest.approx(-0.24105031258753709416, rel=1e-12)


def test_hyp1f2_z_domain_cap():
    hyp1f2(1.0, 1.5, 2.5, -Z_MAX)
    with pytest.raises(ValueError):
        hyp1f2(1.0, 1.5, 2.5, -Z_MAX - 1.0)


# 30-digit values frozen from mpmath 1.3.0 at 50 working digits, evaluated at
# the exact double of each argument; mpmath is not needed to run the test.
_GAMMA_ORACLE = [
    (-49.5, "7.32226968923412703522501045246e-64"),
    (-41.7, "8.50301198838615419418392226773e-51"),
    (-33.25, "2.12475989179996337854332684688e-37"),
    (-20.9, "-2.70377294988768511308485437402e-19"),
    (-12.5, "-1.83660648385928091564965935674e-9"),
    (-7.3, "0.000418387873013548021333054145604"),
    (-3.999, "41.7295328755034792175355443286"),
    (-2.5, "-0.945308720482941881225689324449"),
    (-1.001, "999.578627002466425667060849668"),
    (-0.5, "-3.54490770181103205459633496668"),
    (0.001, "999.423772484595445298321040722"),
    (0.3, "2.9915689876875907446421606752"),
    (0.5, "1.77245385090551602729816748334"),
    (1.5, "0.886226925452758013649083741671"),
    (2.75, "1.60835942198554565923194152316"),
    (7.3, "1271.42363366390883991787432614"),
    (12.9, "3.72227524664496185404576024226e+8"),
    (23.4, "3.91912153053998717202446218349e+21"),
    (37.77, "5.98430409997833684542693962271e+42"),
    (49.9, "4.11801103425303521909228007778e+62"),
]


@pytest.mark.parametrize("x,want", _GAMMA_ORACLE)
def test_gamma_against_frozen_mpmath(x, want):
    # measured worst for math.gamma: 4.9e-16 relative
    want = float(want)
    assert abs(math.gamma(x) - want) <= 1e-13 * abs(want)


# (order, kind, z, 1F2 value): kind 0 is the (order+1)/2; 1/2, (order+3)/2
# series of the kernel's Kp part and kind 1 the (order+2)/2; 3/2, (order+4)/2
# series of its Km part.  The negative z include -(pi m / 2)^2 at the series
# lags m = 1..4, where exactops evaluates them.
_HYP1F2_ORACLE = [
    (-0.9, 0, -39.47841760435743, "0.728972046476758172944447023988"),
    (-0.5, 1, -22.206609902451056, "0.0817303733221209432669331641495"),
    (0.3, 0, -9.869604401089358, "-0.0389402665618929718218012610294"),
    (1.0, 1, -39.47841760435743, "-0.0189977219329383339547108762821"),
    (1.7, 0, -2.4674011002723395, "-0.559443766426480538068756445088"),
    (2.5, 0, -39.47841760435743, "0.056317261372256316251385531816"),
    (3.0, 1, -22.206609902451056, "0.0524873308180823445544476737086"),
    (-0.9, 1, 40.0, "1162.46288804240193096160234884"),
    (0.3, 0, 17.5, "320.837068462315268238428141667"),
    (2.5, 1, 4.0, "4.39782076241095232420501987608"),
    (3.0, 0, -40.0, "0.0999014253953751875401940722258"),
    (-0.5, 1, -40.0, "0.032457722083518701032918803156"),
    (1.7, 1, -31.0, "-0.00932334132709653583108541550122"),
    (0.3, 1, -39.47841760435743, "-0.00913315216062842313144347324842"),
    (-0.99, 0, -15.0, "0.975287956678480009200996756173"),
]


@pytest.mark.parametrize("order,kind,z,want", _HYP1F2_ORACLE)
def test_hyp1f2_against_frozen_mpmath(order, kind, z, want):
    if kind == 0:
        params = ((order + 1.0) / 2.0, 0.5, (order + 3.0) / 2.0)
    else:
        params = ((order + 2.0) / 2.0, 1.5, (order + 4.0) / 2.0)
    # the alternating sum cancels as z -> -40: measured worst 4.7e-12 relative
    # at z = -4 pi^2, and 1.4e-13 at z = -22.2; 4.7e-14 or better elsewhere
    tol = 1e-11 if z <= -20.0 else 2e-13
    want = float(want)
    assert abs(hyp1f2(*params, z) - want) <= tol * abs(want)
