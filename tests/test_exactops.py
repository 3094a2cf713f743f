import math

import numpy as np
import pytest

from fracspec import (
    ConsistencyError,
    NoiseSpec,
    Series,
    exact_difference,
    exact_kernel_quadrature,
    exact_kernel_series,
    exact_kernel_window,
    white_noise,
)
from fracspec import exactops
from fracspec.specfun import cospi


def test_series_m0_closed_form():
    # K_alpha(0) = cos(pi alpha/2) * pi^alpha / (alpha + 1)
    for alpha in (-0.5, 0.5, 1.5):
        want = cospi(alpha / 2.0) * math.pi**alpha / (alpha + 1.0)
        assert exact_kernel_series(alpha, 0) == pytest.approx(want, rel=1e-12)
    assert exact_kernel_series(0.5, 0) == pytest.approx(0.83554275821033350, rel=1e-12)


def test_series_alpha_one():
    assert exact_kernel_series(1.0, 0) == 0.0
    assert exact_kernel_series(1.0, 1) == pytest.approx(-1.0, abs=1e-10)
    assert exact_kernel_series(1.0, -1) == pytest.approx(1.0, abs=1e-10)


def test_series_domain_checks():
    with pytest.raises(ValueError):
        exact_kernel_series(-1.0, 0)
    with pytest.raises(ValueError):
        exact_kernel_series(0.5, 5)


def test_quadrature_alpha_two_closed_forms():
    assert exact_kernel_quadrature(2.0, 0) == pytest.approx(-math.pi**2 / 3.0, abs=1e-10)
    assert exact_kernel_quadrature(2.0, 1) == pytest.approx(2.0, abs=1e-10)
    assert exact_kernel_quadrature(2.0, 2) == pytest.approx(-0.5, abs=1e-10)


def test_quadrature_alpha_one_closed_form():
    assert exact_kernel_quadrature(1.0, 3) == pytest.approx(-1.0 / 3.0, abs=1e-10)
    for m in range(1, 21):
        want = (-1.0) ** m / m
        assert exact_kernel_quadrature(1.0, m) == pytest.approx(want, abs=1e-10)


def test_quadrature_alpha_zero_is_impulse():
    assert exact_kernel_quadrature(0.0, 0) == pytest.approx(1.0, abs=1e-12)
    for m in (1, 2, 7, 23):
        assert exact_kernel_quadrature(0.0, m) == pytest.approx(0.0, abs=1e-12)


def test_quadrature_matches_extended_precision_oracle():
    # frozen from 40-digit mpmath integration of the same integrals
    cases = {
        (0.5, 1): -0.74954768784214786914,
        (0.5, 5): -0.10763174050045508618,
        (0.5, 17): -0.027713481089497679317,
        (-0.5, 3): 0.36989855855565459114,
        (1.5, -2): -0.76542631879926654671,
    }
    for (alpha, m), want in cases.items():
        assert exact_kernel_quadrature(alpha, m) == pytest.approx(want, abs=1e-13)


def test_window_matches_extended_precision_oracle_at_large_lags():
    # frozen from 30-digit mpmath: quad over half-period subintervals, the
    # first one, [0, pi/m], by its term-wise integrated Taylor series;
    # values are (K(+m), K(-m)).  The asymptotic route serves these lags.
    cases = {
        (-0.5, 12): (0.15215079650149101001, 0.010436736612137440647),
        (-0.5, 13): (0.16636124172175997263, -0.0096445588191512213489),
        (-0.5, 100): (0.055147074296687281094, 0.0012678420812408619032),
        (-0.5, 1000): (0.017714233688664747662, 0.00012696705157426646623),
        (-0.5, 4096): (0.0087844582865043925444, 0.000031001547131884431641),
        (0.3, 12): (0.00810554406814237526, -0.016714561804525514627),
        (0.3, 13): (-0.024134517385585786244, 0.015447269400360337157),
        (0.3, 100): (0.0014605262706394978707, -0.0020334246816955037609),
        (0.3, 1000): (0.00017466637648923534925, -0.00020368566349818490271),
        (0.3, 4096): (0.000045086251520889486101, -0.000049734989962851514296),
        (1.5, 12): (0.10107964808722202955, -0.10854413552728506216),
        (1.5, 13): (-0.092129582445017954256, 0.099906886311179224063),
        (1.5, 100): (0.012477436061667039156, -0.012592887627059124349),
        (1.5, 1000): (0.0012527290095701646008, -0.0012539124555108137195),
        (1.5, 4096): (0.0003059496212820650195, -0.00030602056363902871782),
        (2.7, 12): (-0.53720529650552438868, 0.49918915633537450222),
        (2.7, 13): (0.49458537587403023492, -0.46236310515342941791),
        (2.7, 100): (-0.062648903760562898389, 0.062102549683580446796),
        (2.7, 1000): (-0.0062405893322684207186, 0.0062351261453299844498),
        (2.7, 4096): (-0.001523077967477205981, 0.0015227523365857101875),
    }
    for (alpha, m), (want_pos, want_neg) in cases.items():
        window = exact_kernel_window(alpha, 4096)  # cached after the first lag
        assert window.weight(m) == pytest.approx(want_pos, abs=1e-13)
        assert window.weight(-m) == pytest.approx(want_neg, abs=1e-13)


def test_quadrature_domain():
    with pytest.raises(ValueError):
        exact_kernel_quadrature(-1.2, 1)


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.0, 1.5, 2.0])
def test_series_quadrature_oracle_equivalence(alpha):
    for m in range(-4, 5):
        s = exact_kernel_series(alpha, m)
        q = exact_kernel_quadrature(alpha, m)
        assert abs(s - q) <= 1e-8


def test_window_alpha_one_closed_form():
    window = exact_kernel_window(1.0, 3)
    want = [1 / 3, -1 / 2, 1.0, 0.0, -1.0, 1 / 2, -1 / 3]
    assert np.abs(window.weights - want).max() <= 1e-9
    assert window.weight(-3) == window.weights[0]


def test_window_alpha_two_closed_form():
    window = exact_kernel_window(2.0, 2)
    want = [-0.5, 2.0, -math.pi**2 / 3.0, 2.0, -0.5]
    assert np.abs(window.weights - want).max() <= 1e-9


@pytest.mark.parametrize("alpha", [-0.5, 0.4, 1.0, 1.7])
def test_window_parity_identity(alpha):
    window = exact_kernel_window(alpha, 24)
    M = window.half_width
    kplus_term = 2.0 * cospi(alpha / 2.0)
    for m in range(1, M + 1):
        lhs = window.weights[M + m] + window.weights[M - m]
        ic, _ = exactops._oscillatory_integrals(alpha, m)
        want = kplus_term * ic / math.pi
        assert lhs == pytest.approx(want, abs=1e-10)


def test_window_alpha_one_center_zero():
    assert abs(exact_kernel_window(1.0, 8).weight(0)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_window_decay_over_dyadic_blocks(alpha):
    # |K(m)| ~ C m^-(1+min(alpha,1)) once past the pre-asymptotic lags
    # (at alpha=1.5 the cos/sin parts nearly cancel at m=1), so block maxima
    # decrease from the second dyadic block on
    window = exact_kernel_window(alpha, 128)
    M = window.half_width
    mags = np.abs(window.weights[M + 1 :])
    block_max = [
        mags[2**j - 1 : min(2 ** (j + 1) - 1, mags.size)].max() for j in range(1, 7)
    ]
    assert all(a >= b for a, b in zip(block_max, block_max[1:]))
    # the periodized symbol (ix)^alpha jumps at x = +/-pi for non-even alpha,
    # so the true envelope is C/m (cf. the alpha=1 closed form (-1)^m/m)
    m = np.arange(1, mags.size + 1)
    envelope = 2.0 * math.pi ** (alpha - 1.0) / m
    assert (mags <= envelope).all()


def test_window_cache_returns_same_object():
    a = exact_kernel_window(0.5, 16)
    b = exact_kernel_window(0.5, 16)
    assert a is b


def test_window_consistency_check_fires_on_bad_series(monkeypatch):
    def junk(order, m):
        return (math.pi**order / (order + 1.0)) + 1.0, 0.0

    monkeypatch.setattr(exactops, "_series_parts", junk)
    exactops._window_cache.clear()
    with pytest.raises(ConsistencyError):
        exact_kernel_window(0.7, 4)
    exactops._window_cache.clear()


def test_window_consistency_check_fires_on_bad_asymptotic(monkeypatch):
    asymptotic = exactops._asymptotic_integrals

    def off_by_1e6(order, lags):
        ic, isn = asymptotic(order, lags)
        return ic + 1e-6, isn

    monkeypatch.setattr(exactops, "_asymptotic_integrals", off_by_1e6)
    exactops._window_cache.clear()
    with pytest.raises(ConsistencyError, match="asymptotic/quadrature"):
        exact_kernel_window(0.7, 64)
    exactops._window_cache.clear()


def test_window_build_quadrature_calls_are_bounded(monkeypatch):
    # a cold build runs quadrature at lags 0..11 and at the sampled
    # cross-check lags only; an all-quadrature build would make 4097 calls
    calls = []
    quadrature = exactops._oscillatory_integrals

    def counting(order, m):
        calls.append(m)
        return quadrature(order, m)

    monkeypatch.setattr(exactops, "_oscillatory_integrals", counting)
    exactops._window_cache.clear()
    exact_kernel_window(0.5, 4096)
    exactops._window_cache.clear()
    assert 4096 in calls
    assert len(calls) <= 40


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.3, 1.0, 1.7, 2.0, 3.0, 6.3])
def test_window_matches_quadrature_at_sampled_lags(alpha):
    # the asymptotic route against quadrature, well inside the 1e-8 that
    # window construction enforces at its own sample of lags.  Quadrature
    # loses accuracy as the order grows (at 6.3 it is off by 1.2e-11 at lag
    # 513 against mpmath), so accuracy itself is checked against the frozen
    # extended-precision values above.
    window = exact_kernel_window(alpha, 600)
    lags = [*range(exactops.ASYMPTOTIC_MIN_LAG, 40), *range(40, 600, 37), 600]
    for m in lags:
        for lag in (m, -m):
            want = exact_kernel_quadrature(alpha, lag)
            assert abs(window.weight(lag) - want) <= 1e-12 * max(1.0, abs(want))


def test_window_validation():
    with pytest.raises(ValueError):
        exact_kernel_window(0.5, 0)
    with pytest.raises(ValueError):
        exact_kernel_window(-1.0, 4)
    with pytest.raises(ValueError, match="exceeds cap"):
        exact_kernel_window(0.5, exactops.HALF_WIDTH_CAP + 1)


def test_exact_difference_identity_at_order_zero():
    y = white_noise(NoiseSpec(seed=31), 64)
    window = exact_kernel_window(0.0, 8)
    out = exact_difference(y, window, boundary="zero")
    assert np.abs(out.values - y.values).max() <= 1e-9


def test_exact_difference_annihilates_constants_at_order_one():
    c = 3.7
    M = 64
    y = Series(np.full(256, c))
    out = exact_difference(y, exact_kernel_window(1.0, M), boundary="zero")
    interior = out.values[M:-M]
    assert np.abs(interior).max() <= 1e-10 * abs(c) * math.log(M)


def test_exact_difference_periodic_eigenfunction():
    # a bin-frequency cosine is an eigenvector of circular convolution:
    # output amplitude |H(w0 T)|, phase shifted by arg H(w0 T)
    n, j0, M, alpha = 64, 8, 512, 0.5
    t = np.arange(n)
    theta = 2.0 * math.pi * j0 / n
    y = Series(np.cos(theta * t))
    window = exact_kernel_window(alpha, M)
    out = exact_difference(y, window, boundary="periodic")
    resp = complex((window.weights * np.exp(-1j * theta * window.offsets)).sum())
    want = np.real(resp * np.exp(1j * theta * t))
    assert np.abs(out.values - want).max() <= 1e-10
    target_mag = theta**alpha  # |(i w0 T)^alpha|
    assert abs(resp) == pytest.approx(target_mag, rel=2e-3)


def test_exact_difference_boundary_validation():
    y = white_noise(NoiseSpec(seed=1), 16)
    window = exact_kernel_window(0.5, 4)
    with pytest.raises(ValueError):
        exact_difference(y, window, boundary="mirror")
