import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import (
    NoiseSpec,
    Series,
    estimate_memory,
    gl_coefficients,
    gl_derivative_approx,
    gl_difference,
    loglog_slope_fit,
    periodogram,
    white_noise,
)


def _random_series(n, seed):
    return white_noise(NoiseSpec(sigma=1.0, seed=seed), n)


def test_series_validation():
    with pytest.raises(ValueError):
        Series(np.array([]))
    with pytest.raises(ValueError):
        Series([1.0, np.nan])
    with pytest.raises(ValueError):
        Series([1.0], step=0.0)
    # a non-finite step or start would give NaN times
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^series step must be finite, got {bad}$"):
            Series(np.sin(np.arange(64.0)), step=bad)
        with pytest.raises(ValueError, match="series start must be finite"):
            Series(np.sin(np.arange(64.0)), start=bad)
    s = Series([1.0, 2.0], step=0.5, start=3.0)
    assert np.allclose(s.times, [3.0, 3.5])
    assert not s.values.flags.writeable


_SINE = np.sin(np.arange(100.0))


def _out_of_range(step, n):
    return (f"^series step {re.escape(repr(step))} takes the times or frequencies of {n} "
            "samples beyond the double-precision range$")


@pytest.mark.parametrize(
    "call,step,n",
    [
        # n_fft * step overflowed, and every frequency read 0.0
        pytest.param(lambda: periodogram(Series(_SINE, step=1e307)), 1e307, 100,
                     id="periodogram-huge-step"),
        pytest.param(lambda: estimate_memory(Series(_SINE, step=1e307)), 1e307, 100,
                     id="estimate-huge-step"),
        # pi / step overflowed
        pytest.param(lambda: periodogram(Series(_SINE, step=1e-320)), 1e-320, 100,
                     id="periodogram-subnormal-step"),
        # the last time overflowed
        pytest.param(lambda: Series(np.ones(3), step=1e308, start=1e308).times, 1e308, 3,
                     id="times-huge-start"),
    ],
)
def test_series_refuses_a_step_beyond_the_double_range(call, step, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=_out_of_range(step, n)):
            call()


def test_coefficients_integer_orders_exact():
    assert gl_coefficients(1.0, 3).tolist() == [1.0, -1.0, 0.0, 0.0]
    assert gl_coefficients(2.0, 3).tolist() == [1.0, -2.0, 1.0, 0.0]
    assert gl_coefficients(3.0, 5).tolist() == [1.0, -3.0, 3.0, -1.0, 0.0, 0.0]


def test_coefficients_half_order():
    c = gl_coefficients(0.5, 3)
    assert c.tolist() == [1.0, -0.5, -0.125, -0.0625]


def test_coefficients_structure():
    c = gl_coefficients(0.37, 64)
    assert c[0] == 1.0
    assert c[1] == -0.37
    assert c.size == 65
    assert type(c) is np.ndarray and c.dtype == np.float64 and not c.flags.writeable


# c_m = Gamma(m - d) / (Gamma(-d) Gamma(m + 1)) at the lags of _GL_ORACLE_LAGS,
# frozen from mpmath 1.3.0 at 40 digits for the exact double of each order d.
_GL_ORACLE_LAGS = (1, 10, 10**3, 10**5, 10**6)
_GL_ORACLE = {
    -0.45: (0.4500000000000000111, 0.14143720994800420328, 0.011373419589608800728,
            0.00090353351976767226975, 0.00025465062861088182783),
    -0.3: (0.2999999999999999889, 0.065995166020265620761, 0.0026549440522692213957,
           0.00010570621479201539891, 0.000021091182614424195597),
    0.1: (-0.10000000000000000555, -0.0074749787569843752906, -0.000046902614930988942447,
          -2.9591937715631000318e-7, -2.3505700012378075862e-8),
    0.3: (-0.2999999999999999889, -0.011817569512546875014, -0.000029101324728067148192,
          -7.3085108479521553019e-8, -3.6629259053605891405e-9),
    0.4: (-0.4000000000000000222, -0.011006414847999999695, -0.000016952387196680142604,
          -2.6860274106570760628e-8, -1.0693240777768612567e-9),
    0.7: (-0.69999999999999995559, -0.0049673780875468759374, -1.8597626704577763764e-6,
          -7.3994868318489065644e-10, -1.4763838164783665523e-11),
    1.5: (-1.5, 0.001636505126953125, 1.3406060425696814905e-8, 1.33811817676244122e-13,
          4.2314298105369181356e-16),
}


@pytest.mark.parametrize("order", sorted(_GL_ORACLE))
def test_coefficients_against_frozen_mpmath(order):
    # c_m is a running product of m rounded ratios (m - 1 - d) / m: each
    # step rounds the subtraction, the division and the product, so the
    # relative error can grow by at most about 1.5 eps per lag, 3.3e-16 * m.
    # The bound 2e-15 * m leaves a margin over that; measured: at most
    # 3.4e-17 * m (1.7e-11 to 2.5e-11 at m = 1e6), since roundings mostly
    # cancel.
    c = gl_coefficients(order, _GL_ORACLE_LAGS[-1])
    for m, want in zip(_GL_ORACLE_LAGS, _GL_ORACLE[order]):
        assert abs(c[m] - want) <= 2e-15 * m * abs(want), m


@pytest.mark.parametrize("pair", [(0.3, 0.7), (-0.5, 1.2), (0.3, -0.5), (1.2, 0.7)])
def test_coefficient_semigroup(pair):
    a, b = pair
    ca = gl_coefficients(a, 64)
    cb = gl_coefficients(b, 64)
    cab = gl_coefficients(a + b, 64)
    conv = np.convolve(ca, cb)[:65]
    assert np.abs(conv - cab).max() <= 1e-12


def test_coefficient_sum_decay():
    # partial sums equal (-1)^M C(alpha-1, M), decaying like M^-alpha
    for M in (64, 256, 1024):
        total = gl_coefficients(0.5, M).sum()
        assert abs(total) <= 2.0 * M**-0.5


def test_first_difference_and_identity():
    y = _random_series(64, seed=11)
    z = gl_difference(y, 1.0, 8)
    assert z.values[0] == y.values[0]
    assert np.allclose(z.values[1:], y.values[1:] - y.values[:-1], rtol=0, atol=1e-15)
    z0 = gl_difference(y, 0.0, 8)
    assert np.array_equal(z0.values, y.values)
    assert z.step == y.step and z.start == y.start and len(z) == len(y)


def test_integer_reduction_matches_direct_differences():
    y = _random_series(256, seed=3).values
    direct2 = np.zeros_like(y)
    direct2[0] = y[0]
    direct2[1] = y[1] - 2.0 * y[0]
    direct2[2:] = y[2:] - 2.0 * y[1:-1] + y[:-2]
    got = gl_difference(Series(y), 2.0, 16).values
    assert np.abs(got - direct2).max() <= 4.0 * np.spacing(4.0 * np.abs(y).max())


@pytest.mark.parametrize("order", [0, 1, 2])
def test_integer_reduction_at_long_truncation(order):
    # criterion 1's bound also holds when the truncation far exceeds both the
    # order and the series: the exact zeros past lag ``order`` are dropped,
    # so the sum stays direct
    y = white_noise(NoiseSpec(seed=101), 1024).values
    want = {
        0: y,
        1: np.concatenate(([y[0]], y[1:] - y[:-1])),
        2: np.concatenate(([y[0], y[1] - 2 * y[0]], y[2:] - 2 * y[1:-1] + y[:-2])),
    }[order]
    got = gl_difference(Series(y), float(order), 100_000).values
    tol = (order + 1) * np.spacing(2.0**order * np.abs(y).max())
    assert np.abs(got - want).max() <= tol
    if order == 0:
        assert np.array_equal(got, y)


def test_composition_equals_summed_order():
    y = _random_series(256, seed=5)
    M = 256
    once = gl_difference(gl_difference(y, 0.3, M), 0.7, M)
    direct = gl_difference(y, 1.0, M)
    assert np.abs(once.values - direct.values).max() <= 1e-10


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    b=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    order=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
)
def test_gl_difference_linearity(a, b, order):
    y = _random_series(48, seed=1)
    z = _random_series(48, seed=2)
    combo = Series(a * y.values + b * z.values)
    lhs = gl_difference(combo, order, 32).values
    rhs = a * gl_difference(y, order, 32).values + b * gl_difference(z, order, 32).values
    scale = max(1.0, np.abs(lhs).max())
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale * (abs(a) + abs(b) + 1.0)


def test_fractional_integrate_impulse():
    impulse = Series(np.array([1.0, 0.0, 0.0, 0.0]))
    got = gl_difference(impulse, -0.5, 3)
    assert got.values.tolist() == [1.0, 0.5, 0.375, 0.3125]


@pytest.mark.parametrize("d", [0.1, 0.45, 0.9])
def test_inversion_identity(d):
    y = _random_series(512, seed=21)
    M = 512
    back = gl_difference(gl_difference(y, -d, M), d, M)
    assert np.abs(back.values - y.values).max() <= 1e-10


def test_arfima_residuals_basics():
    y = _random_series(128, seed=4)
    # the driving noise of an ARFIMA(0, d, 0) series is (1-L)^d y
    assert np.array_equal(gl_difference(y, 0.0, 16).values, y.values)
    const = Series(np.ones(16))
    eps = gl_difference(const, 1.0, 16)
    assert eps.values[0] == 1.0
    assert np.abs(eps.values[1:]).max() == 0.0


def test_truncation_validation():
    y = _random_series(8, seed=1)
    with pytest.raises(ValueError):
        gl_difference(y, 0.5, -1)
    with pytest.raises(ValueError):
        gl_difference(y, 0.5, 10**6 + 1)
    # the quotient's truncation is checked by gl_coefficients alone
    with pytest.raises(ValueError, match="^truncation must be nonnegative$"):
        gl_derivative_approx(math.exp, 0.5, 0.0, 0.1, -1)
    with pytest.raises(ValueError, match="^truncation exceeds cap 1000000$"):
        gl_derivative_approx(math.exp, 0.5, 0.0, 0.1, 10**6 + 1)
    with pytest.raises(ValueError, match="^step must be positive$"):
        gl_derivative_approx(math.exp, 0.5, 0.0, 0.0, 4)


@pytest.mark.parametrize("t, step, message", [
    # the ids are those of the one message both non-finite steps once had
    pytest.param(0.0, math.inf, "step must be finite, got inf",
                 id="0.0-inf-step must be positive and finite"),
    pytest.param(0.0, math.nan, "step must be finite, got nan",
                 id="0.0-nan-step must be positive and finite"),
    (math.inf, 0.1, "t must be finite, got inf"),
    (math.nan, 0.1, "t must be finite, got nan"),
])
def test_derivative_approx_refuses_non_finite_arguments(t, step, message):
    # the provider is never called: its value was blamed for these
    def provider(x):
        raise AssertionError(f"provider called at {x}")

    with pytest.raises(ValueError, match=f"^{message}$"):
        gl_derivative_approx(provider, 0.5, t, step, 4)


@pytest.mark.parametrize(
    "f, order, step",
    [
        (math.exp, -2.0, 1e-300),
        (math.exp, 2.0, 1e300),
        (lambda t: 1.0, 2.0, 1e-300),
        (lambda t: 1e300 if t == 0.0 else 0.0, 1.0, 1e-10),
    ],
    ids=["small-step-overflows", "large-step-overflows", "step-underflows-over-zero",
         "quotient-overflows"],
)
def test_derivative_approx_refuses_a_quotient_out_of_range(f, order, step):
    # the first two raised OverflowError; the others returned nan and inf,
    # each with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                "step^order or the quotient leaves the double-precision range "
                f"at step={step:g}, order={order:g}")):
            gl_derivative_approx(f, order, 0.0, step, 4)


def test_derivative_approx_affine_and_constant():
    assert gl_derivative_approx(lambda t: 5.0, 1.0, 0.3, 0.1, 16) == pytest.approx(0.0, abs=1e-12)
    assert gl_derivative_approx(lambda t: t, 1.0, 0.3, 0.1, 16) == pytest.approx(1.0, abs=1e-12)


def test_derivative_approx_exponential_closed_form():
    # Delta_T^alpha e^{t} = (1 - e^{-T})^alpha e^{t}, so the quotient equals
    # ((1 - e^{-T}) / T)^alpha e^{t} once the truncation tail is dead
    for T in (0.1, 0.05, 0.025):
        got = gl_derivative_approx(math.exp, 0.5, 0.0, T, 4000)
        want = ((1.0 - math.exp(-T)) / T) ** 0.5
        assert got == pytest.approx(want, abs=1e-10)


def test_derivative_approx_rejects_bad_provider():
    with pytest.raises(ValueError):
        gl_derivative_approx(lambda t: math.inf, 0.5, 0.0, 0.1, 4)


def test_derivative_approx_converges_at_first_order_in_the_step():
    # f = sin 3t + cos(7t) / 2 has the Weyl derivative
    # sum_k a_k k^alpha (its trig function at kt + alpha pi / 2); the GL
    # quotient at step T = 2 pi / n, truncated at 50 n lags (50 periods),
    # converges to it like T
    alpha = 0.5
    phase = alpha * math.pi / 2

    def f(t):
        return math.sin(3 * t) + 0.5 * math.cos(7 * t)

    def weyl(t):
        return 3**alpha * math.sin(3 * t + phase) + 0.5 * 7**alpha * math.cos(7 * t + phase)

    steps, errors = [], []
    for n in (64, 128, 256, 512, 1024, 2048):
        step = 2 * math.pi / n
        steps.append(step)
        errors.append(max(abs(gl_derivative_approx(f, alpha, t, step, 50 * n) - weyl(t))
                          for t in (0.3, 1.1, 2.0, 4.4)))
    assert errors == sorted(errors, reverse=True)
    assert abs(loglog_slope_fit(steps, errors).slope - 1.0) <= 0.05
