import math
import sys
import threading

import numpy as np
import pytest

import fracspec
from fracspec import (
    ConsistencyError,
    KernelWindow,
    NoiseSpec,
    Series,
    exact_difference,
    exact_kernel_window,
    white_noise,
)
from fracspec import exactops
from fracspec.specfun import cospi


def _at(window, m: int) -> float:
    """K(m) of a window; the middle weight is K(0)."""
    return float(window.weights[window.weights.size // 2 + m])


def test_series_m0_closed_form(route_kernel):
    # K_alpha(0) = cos(pi alpha/2) * pi^alpha / (alpha + 1)
    for alpha in (-0.5, 0.5, 1.5):
        want = cospi(alpha / 2.0) * math.pi**alpha / (alpha + 1.0)
        assert route_kernel("series", alpha, 0) == pytest.approx(want, rel=1e-12)
    assert route_kernel("series", 0.5, 0) == pytest.approx(0.83554275821033350, rel=1e-12)


def test_series_alpha_one(route_kernel):
    assert route_kernel("series", 1.0, 0) == 0.0
    assert route_kernel("series", 1.0, 1) == pytest.approx(-1.0, abs=1e-10)
    assert route_kernel("series", 1.0, -1) == pytest.approx(1.0, abs=1e-10)


def test_quadrature_alpha_two_closed_forms(route_kernel):
    assert route_kernel("quadrature", 2.0, 0) == pytest.approx(-math.pi**2 / 3.0, abs=1e-10)
    assert route_kernel("quadrature", 2.0, 1) == pytest.approx(2.0, abs=1e-10)
    assert route_kernel("quadrature", 2.0, 2) == pytest.approx(-0.5, abs=1e-10)


def test_quadrature_alpha_one_closed_form(route_kernel):
    assert route_kernel("quadrature", 1.0, 3) == pytest.approx(-1.0 / 3.0, abs=1e-10)
    for m in range(1, 21):
        want = (-1.0) ** m / m
        assert route_kernel("quadrature", 1.0, m) == pytest.approx(want, abs=1e-10)


def test_quadrature_alpha_zero_is_impulse(route_kernel):
    assert route_kernel("quadrature", 0.0, 0) == pytest.approx(1.0, abs=1e-12)
    for m in (1, 2, 7, 23):
        assert route_kernel("quadrature", 0.0, m) == pytest.approx(0.0, abs=1e-12)


def test_quadrature_matches_extended_precision_oracle(route_kernel):
    # frozen from 40-digit mpmath integration of the same integrals
    cases = {
        (0.5, 1): -0.74954768784214786914,
        (0.5, 5): -0.10763174050045508618,
        (0.5, 17): -0.027713481089497679317,
        (-0.5, 3): 0.36989855855565459114,
        (1.5, -2): -0.76542631879926654671,
    }
    for (alpha, m), want in cases.items():
        assert route_kernel("quadrature", alpha, m) == pytest.approx(want, abs=1e-13)


# K(-11)..K(11) from the closed form
#   int_0^pi x^a e^{imx} dx = pi^(a+1) 1F1(a+1; a+2; i pi m) / (a+1),
# frozen from mpmath 1.3.0 at 40 digits (stable to 1e-40 at 60 digits).  The
# window takes these lags from quadrature; the 1F2 series it is checked
# against is off by up to 2.2e-12 here (order 1.5, lag -4), quadrature by at
# most 4.3e-15.
_SMALL_LAG_ORACLE = {
    -0.99: (
        -0.0092965238499762881028, 0.01022224766406410544, -0.011352244783757694053,
        0.012762298041254123771, -0.014570816209795169037, 0.016973554629890486842,
        -0.020318649527595196014, 0.025289174616503449749, -0.033426802929872282736,
        0.049057724653380462617, -0.090289492092829960427, 0.5057357368084655035,
        1.0851910767814930805, 0.93801128416224044796, 1.0168332837976474765,
        0.95512493204399338563, 0.99864826740645731016, 0.95950664680462667616,
        0.98959507923751714131, 0.96092472889903335805, 0.98392123297036719376,
        0.96130006891715674729, 0.97991174207508013971,
    ),
    -0.9: (
        -0.010144635336522702791, 0.011151232790558175689, -0.012379143101442040318,
        0.013910166291294825492, -0.015871939772697642883, 0.01847513366460734211,
        -0.022093671803774648575, 0.02745945244784961408, -0.036219419459493163432,
        0.052978681856471447352, -0.096949773106555096314, 0.55833847487020873709,
        1.0402937565992688777, 0.81784676280452427941, 0.87571044362292482487,
        0.78656682885784654134, 0.81915828668418418969, 0.76351864071648386522,
        0.78638361557025193933, 0.74602058321308399565, 0.76369248273965130312,
        0.7320629558639860116, 0.74649296999829791813,
    ),
    -0.5: (
        -0.011370587002783525428, 0.012487810371880063336, -0.01384823447705447,
        0.015540852143846164097, -0.017704029041355119327, 0.020565180476223870704,
        -0.024525928652656515893, 0.030367703340652199996, -0.039836770775096546982,
        0.057781893381444443306, -0.1044205573059848824, 0.79788456080286535588,
        0.7012108148814303824, 0.33178796108548188608, 0.36989855855565459114,
        0.24925576772601117103, 0.27843284420168550592, 0.20865280901470211599,
        0.23176637025338277277, 0.18330236608784423809, 0.20240816079999090304,
        0.16552190035490928951, 0.18181317175062481662,
    ),
    -0.1: (
        -0.0039631616044654579036, 0.0043513302579173086837, -0.0048237500980820009136,
        0.0054111723747393664815, -0.006161375541590121441, 0.0071528337769930957282,
        -0.0085240579409040527377, 0.010544506492846153451, -0.013816950862177092581,
        0.020022748563456440367, -0.036306280661981013296, 0.97872894047340965036,
        0.15692062557128151511, 0.032052371632733541672, 0.054861003437422152167,
        0.018541062204343301832, 0.033925385761597636111, 0.013311168103647233182,
        0.024765904593144114232, 0.010487191857100214957, 0.019592757371307043719,
        0.0087036144304827296569, 0.016255633483297373699,
    ),
    0.0: (
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0,
    ),
    0.3: (
        0.018208359867899998295, -0.01999534469086129706, 0.022171217666596682821,
        -0.024878414996313396548, 0.028338603039449806763, -0.032916669227353625007,
        0.039258695032445992213, -0.048627582153755759695, 0.063870798638468004254,
        -0.093051278755110019107, 0.17175301482015912654, 0.96623439630074068855,
        -0.47352651433460639397, 0.017800428848668882686, -0.12765971937577120151,
        0.015246466312768398856, -0.070820136752867793356, 0.012528384535552501383,
        -0.048309476276211740503, 0.010587927984111902445, -0.036396080356448635246,
        0.0091748666524215506083, -0.029072170790527003659,
    ),
    0.5: (
        0.035750635172730992293, -0.039269837521549264627, 0.043557573684767271438,
        -0.048896481791188699486, 0.055727180840107874039, -0.064776615027220123765,
        0.077335863215020883999, -0.095939607182776644486, 0.12634129833796146815,
        -0.18502566685535522814, 0.34673200174844023674, 0.83554275821033350081,
        -0.74954768784214786914, 0.11652414992934586745, -0.19463051989308665784,
        0.068578599134606773107, -0.10763174050045508618, 0.049102645982346936658,
        -0.073546495075446294903, 0.038411387169688819862, -0.055571817866825347718,
        0.031618133022397803319, -0.044531715116067735114,
    ),
    1.0: (
        0.090909090909090909091, -0.1, 0.11111111111111111111, -0.125, 0.14285714285714285714,
        -0.16666666666666666667, 0.2, -0.25, 0.33333333333333333333, -0.5, 1.0, 0.0, -1.0, 0.5,
        -0.33333333333333333333, 0.25, -0.2, 0.16666666666666666667, -0.14285714285714285714,
        0.125, -0.11111111111111111111, 0.1, -0.090909090909090909091,
    ),
    1.5: (
        0.11881273546132697633, -0.13122188935978241481, 0.14651672198251679537,
        -0.16583235750028541255, 0.19098641551080886604, -0.22507984330938840614,
        0.27386358642760631544, -0.34930588702241630448, 0.48094202827414748448,
        -0.76542631879926654671, 1.7734121399381606063, -1.5749609945722419744,
        -0.1289926055522784475, 0.53926395621074072502, -0.32045611915862342148,
        0.28761155965339752289, -0.21837330531296352439, 0.19661002805699664104,
        -0.16328491352890440126, 0.14946213207012087768, -0.12999515672391802551,
        0.12058869377819035462, -0.10786514224012714987,
    ),
    2.0: (
        0.016528925619834710744, -0.02, 0.024691358024691358025, -0.03125, 0.040816326530612244898,
        -0.055555555555555555556, 0.08, -0.125, 0.22222222222222222222, -0.5, 2.0,
        -3.2898681336964528729, 2.0, -0.5, 0.22222222222222222222, -0.125, 0.08,
        -0.055555555555555555556, 0.040816326530612244898, -0.03125, 0.024691358024691358025,
        -0.02, 0.016528925619834710744,
    ),
    2.5: (
        -0.33094278616157159048, 0.3609347763031148899, -0.39679007571936810529,
        0.44035269908498642559, -0.494276635379083253, 0.56245047969285565345,
        -0.65054870407231782949, 0.76603444221864104372, -0.91168247191507874163,
        1.0119183447162192846, 0.49612786341479657972, -3.5342042073133068643,
        4.2598840003113010548, -2.6427811884787283743, 1.5795142614423878299,
        -1.1641078463910246858, 0.89666714994260274941, -0.73815459276218275644,
        0.6208021100361237056, -0.53888222707573839128, 0.47359893091559999998,
        -0.42388742208760808226, 0.38246048563917480098,
    ),
    3.0: (
        -0.89272887492998677151, 0.98096044010893586188, -1.0883922585572538383,
        1.2219818001361698274, -1.3924507744996459834, 1.6171562890704486587,
        -1.9259208802178717238, 2.3736511002723396547, -3.0676459114742306507,
        4.1848022005446793094, -3.8696044010893586188, 0.0, 3.8696044010893586188,
        -4.1848022005446793094, 3.0676459114742306507, -2.3736511002723396547,
        1.9259208802178717238, -1.6171562890704486587, 1.3924507744996459834,
        -1.2219818001361698274, 1.0883922585572538383, -0.98096044010893586188,
        0.89272887492998677151,
    ),
}


@pytest.mark.parametrize("alpha", sorted(_SMALL_LAG_ORACLE))
def test_window_matches_closed_form_oracle_at_small_lags(alpha):
    window = exact_kernel_window(alpha, 11)
    for m, want in zip(range(-11, 12), _SMALL_LAG_ORACLE[alpha]):
        assert abs(_at(window, m) - want) <= 1e-14 * max(1.0, abs(want)), m


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
        assert _at(window, m) == pytest.approx(want_pos, abs=1e-13)
        assert _at(window, -m) == pytest.approx(want_neg, abs=1e-13)


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.0, 1.5, 2.0])
def test_series_quadrature_oracle_equivalence(alpha, route_kernel):
    for m in range(-4, 5):
        s = route_kernel("series", alpha, m)
        q = route_kernel("quadrature", alpha, m)
        assert abs(s - q) <= 1e-8


def test_window_alpha_one_closed_form():
    window = exact_kernel_window(1.0, 3)
    want = [1 / 3, -1 / 2, 1.0, 0.0, -1.0, 1 / 2, -1 / 3]
    assert np.abs(window.weights - want).max() <= 1e-9
    assert _at(window, -3) == window.weights[0]


def test_window_alpha_two_closed_form():
    window = exact_kernel_window(2.0, 2)
    want = [-0.5, 2.0, -math.pi**2 / 3.0, 2.0, -0.5]
    assert np.abs(window.weights - want).max() <= 1e-9


@pytest.mark.parametrize("alpha", [-0.5, 0.4, 1.0, 1.7])
def test_window_parity_identity(alpha):
    M = 24
    window = exact_kernel_window(alpha, M)
    kplus_term = 2.0 * cospi(alpha / 2.0)
    m = np.arange(1, M + 1)
    lhs = window.weights[M + m] + window.weights[M - m]
    want = kplus_term * exactops._quadrature_integrals(alpha, m).real / math.pi
    assert lhs == pytest.approx(want, abs=1e-10)


def test_window_alpha_one_center_zero():
    assert abs(_at(exact_kernel_window(1.0, 8), 0)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_window_decay_over_dyadic_blocks(alpha):
    # |K(m)| ~ C m^-(1+min(alpha,1)) once past the pre-asymptotic lags
    # (at alpha=1.5 the cos/sin parts nearly cancel at m=1), so block maxima
    # decrease from the second dyadic block on
    M = 128
    window = exact_kernel_window(alpha, M)
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


def test_window_cache_keys_the_exact_order():
    # a nearby order built first must not stand in for 0.5
    exactops._window_cache.clear()
    near = exact_kernel_window(0.5 + 4e-13, 16)
    window = exact_kernel_window(0.5, 16)
    assert near is not window
    exactops._window_cache.clear()
    cold = exact_kernel_window(0.5, 16)
    exactops._window_cache.clear()
    assert np.array_equal(window.weights, cold.weights)
    assert not np.array_equal(near.weights, cold.weights)


def test_window_consistency_check_fires_on_bad_series(monkeypatch):
    def junk(order, m):
        return complex(math.pi**order / (order + 1.0) + 1.0, 0.0)

    monkeypatch.setattr(exactops, "_series_integrals", junk)
    exactops._window_cache.clear()
    with pytest.raises(ConsistencyError, match="quadrature/series"):
        exact_kernel_window(0.7, 4)
    exactops._window_cache.clear()


def test_window_consistency_check_fires_on_bad_asymptotic(monkeypatch):
    asymptotic = exactops._asymptotic_integrals

    def off_by_1e6(order, lags):
        return asymptotic(order, lags) + 1e-6

    monkeypatch.setattr(exactops, "_asymptotic_integrals", off_by_1e6)
    exactops._window_cache.clear()
    with pytest.raises(ConsistencyError, match="asymptotic/quadrature"):
        exact_kernel_window(0.7, 64)
    exactops._window_cache.clear()


def test_window_consistency_check_covers_negative_lags(monkeypatch):
    # this shift of E(m) moves K(-m) by 2 cos sin 1e-6 / pi and leaves K(+m)
    asymptotic = exactops._asymptotic_integrals
    shift = 1e-6 * complex(math.sin(0.35 * math.pi), math.cos(0.35 * math.pi))
    monkeypatch.setattr(
        exactops, "_asymptotic_integrals", lambda order, lags: asymptotic(order, lags) + shift
    )
    exactops._window_cache.clear()
    with pytest.raises(ConsistencyError, match="asymptotic/quadrature .* order=0.7, m=-"):
        exact_kernel_window(0.7, 64)
    exactops._window_cache.clear()


def test_window_consistency_check_fails_on_non_finite_oracle(monkeypatch):
    monkeypatch.setattr(exactops, "_series_integrals", lambda order, m: complex(math.nan, 0.0))
    exactops._window_cache.clear()
    with pytest.raises(ConsistencyError, match="quadrature/series"):
        exact_kernel_window(0.7, 4)
    exactops._window_cache.clear()


def test_window_build_quadrature_calls_are_bounded(monkeypatch):
    # a cold build runs quadrature at lags 0..11 and at the sampled
    # cross-check lags only; an all-quadrature build would make 4097 calls
    calls = []
    quadrature = exactops._quadrature_integrals

    def counting(order, lags):
        calls.extend(int(m) for m in lags)
        return quadrature(order, lags)

    monkeypatch.setattr(exactops, "_quadrature_integrals", counting)
    exactops._window_cache.clear()
    exact_kernel_window(0.5, 4096)
    exactops._window_cache.clear()
    assert 4096 in calls
    assert len(calls) <= 40


@pytest.mark.parametrize("alpha", [15.0, 20.0, 30.0])
def test_high_order_window_builds_and_matches_quadrature(alpha, route_kernel):
    # weights grow like pi^alpha (|K(0)| = 2.6e13 at order 30), so the
    # cross-check tolerance is relative to max(1, |K|)
    exactops._window_cache.clear()
    window = exact_kernel_window(alpha, 64)
    for m in exactops._cross_check_lags(64):
        for lag in (m, -m):
            want = route_kernel("quadrature", alpha, lag)
            assert abs(_at(window, lag) - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "name,route", [("_series_integrals", "quadrature/series"),
                   ("_asymptotic_integrals", "asymptotic/quadrature")]
)
def test_window_consistency_check_is_relative_at_high_order(monkeypatch, name, route):
    # at order 20 every checked weight exceeds 1 in magnitude, so scaling a
    # route's E(m) by 1 + 1e-6 is an error of 1e-6 * max(1, |K|)
    integrals = getattr(exactops, name)
    monkeypatch.setattr(exactops, name, lambda order, m: integrals(order, m) * (1.0 + 1e-6))
    exactops._window_cache.clear()
    with pytest.raises(ConsistencyError, match=f"{route} kernel mismatch at order=20"):
        exact_kernel_window(20.0, 64)
    exactops._window_cache.clear()


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.3, 1.0, 1.7, 2.0, 3.0, 6.3])
def test_window_matches_quadrature_at_sampled_lags(alpha, route_kernel):
    # the asymptotic route against quadrature, well inside the
    # 1e-8 * max(1, |K|) that window construction enforces at its own
    # sample of lags; accuracy itself is checked against the frozen
    # extended-precision values above and below.
    window = exact_kernel_window(alpha, 600)
    lags = [*range(exactops.ASYMPTOTIC_MIN_LAG, 40), *range(40, 600, 37), 600]
    for m in lags:
        for lag in (m, -m):
            want = route_kernel("quadrature", alpha, lag)
            assert abs(_at(window, lag) - want) <= 1e-12 * max(1.0, abs(want))


# K(m) = K(-m) at even integer orders, where the leading 1/m term of the
# kernel cancels and |K| sits far below pi^order / m.  Frozen from mpmath
# 1.3.0 at 60 digits: E(m) integrated by parts in closed form (exact at
# integer orders), and at order 16, lag 4096 also mpmath's 1F1 closed form.
# At each lag a quadrature that forms each node's phase m*x from the rounded
# node x is off by more than 1e-8 * max(1, |K|).
_EVEN_ORDER_ORACLE = {
    (10.0, 19524): -0.000248920907290283319087,
    (14.0, 4438): -0.6569791148347915699531,
    (16.0, 4096): 8.699569332800523610252,
    (20.0, 7573): -309.8785592591839466421,
    (40.0, 4530): 15189922980849.64281142,
    (40.0, 19127): -852042503412.1052512769,
}


@pytest.mark.parametrize("order,m", sorted(_EVEN_ORDER_ORACLE))
def test_even_order_window_builds_and_matches_mpmath_at_its_edge(order, m):
    exactops._window_cache.clear()
    window = exact_kernel_window(order, m)
    exactops._window_cache.clear()
    want = _EVEN_ORDER_ORACLE[order, m]
    for lag in (m, -m):
        assert abs(_at(window, lag) - want) <= 1e-13 * max(1.0, abs(want)), lag


def test_window_consistency_check_fires_at_even_order_large_lag(monkeypatch):
    # at order 16, lag 4096 the tolerance is 1e-8 * |K| = 8.7e-8 on K = 8.70;
    # a real shift of E(4096) by pi * 5e-5 moves K(+-4096) by 5e-5
    asymptotic = exactops._asymptotic_integrals

    def off_at_4096(order, lags):
        return asymptotic(order, lags) + np.where(lags == 4096, math.pi * 5e-5, 0.0)

    monkeypatch.setattr(exactops, "_asymptotic_integrals", off_at_4096)
    exactops._window_cache.clear()
    with pytest.raises(ConsistencyError, match="asymptotic/quadrature .* order=16, m=-?4096:"):
        exact_kernel_window(16.0, 4096)
    exactops._window_cache.clear()


@pytest.mark.parametrize("shift,fires", [(2e-7, True), (2e-8, False)])
def test_cross_check_tolerance_has_no_floor(monkeypatch, shift, fires):
    # the tolerance is 1e-8 * max(1, |K|) at every lag and order, with no
    # floor: 8.7e-8 on K = 8.70 at order 16, lag 4096; a real shift of
    # E(4096) by pi * shift moves K(+-4096) by shift
    asymptotic = exactops._asymptotic_integrals

    def off_at_4096(order, lags):
        return asymptotic(order, lags) + np.where(lags == 4096, math.pi * shift, 0.0)

    monkeypatch.setattr(exactops, "_asymptotic_integrals", off_at_4096)
    exactops._window_cache.clear()
    try:
        if fires:
            with pytest.raises(ConsistencyError, match=r"m=-?4096: .* > tol=8\.700e-08"):
                exact_kernel_window(16.0, 4096)
        else:
            want = _EVEN_ORDER_ORACLE[16.0, 4096] + shift
            assert _at(exact_kernel_window(16.0, 4096), 4096) == pytest.approx(want, abs=1e-12)
    finally:
        exactops._window_cache.clear()


# K(+m), K(-m) from pi^(a+1) 1F1(a+1; a+2; i pi m) / (a+1), frozen from
# mpmath 1.3.0 at 30 digits (within 1e-23 of 60 digits).  At the first three
# a quadrature that forms each node's phase m*x from the rounded node x is
# off by 1.3e-8, 6.0e-6 and 1.1e-8 of max(1, |K|); at order -0.99, lag 12 a
# zero ratio ends the asymptotic sum at its 38th term.
_ROUTE_ORACLE = {
    (10.0, 19524): (-0.0002489209072902833190869923, -0.0002489209072902833190869923),
    (40.0, 19127): (-852042503412.1052512768538, -852042503412.1052512768538),
    (16.0, 4096): (8.699569332800523610251551, 8.699569332800523610251551),
    (0.5, 100000): (0.000003980508532807261625687794, -0.000003989416454660838729565287),
    (-0.5, 8375): (0.006180156912506409366915952, -0.00001516237116641595615071298),
    (-0.99, 12): (0.9612313469747969328373012, 0.008524339607411808933675075),
}


# measured worst errors, relative to max(1, |K|): quadrature 4.7e-13 (order
# 16, lag 4096), the asymptotic sum 1.6e-15 (order 40, lag 19127)
@pytest.mark.parametrize("route,tol", [("_quadrature_integrals", 2e-12),
                                       ("_asymptotic_integrals", 1e-14)])
@pytest.mark.parametrize("order,m", list(_ROUTE_ORACLE))
def test_routes_match_mpmath_at_large_lags(route, tol, order, m):
    pos, neg = exactops._kernel_pairs(order, getattr(exactops, route)(order, np.array([m])))
    for got, want in zip((pos[0], neg[0]), _ROUTE_ORACLE[order, m]):
        assert abs(got - want) <= tol * max(1.0, abs(want))


def test_gauss_legendre_rule_is_numpys_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(exactops._GL_NODES, nodes)
    assert np.array_equal(exactops._GL_WEIGHTS, weights)


def test_kernel_window_is_its_weights():
    w = np.array([0.5, -1.0, 2.0, -1.0, 0.5])
    window = KernelWindow(w)
    w[0] = 9.0
    assert window.weights.tolist() == [0.5, -1.0, 2.0, -1.0, 0.5]
    assert not window.weights.flags.writeable and len(window) == 5
    for name in ("order", "half_width", "offsets", "weight"):
        assert not hasattr(window, name), name
    for bad in ([], [1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], np.ones((3, 3)),
                [1.0, math.nan, 1.0], [1.0, math.inf, 1.0]):
        with pytest.raises(ValueError, match="kernel weights must be"):
            KernelWindow(bad)


def test_kernel_weights_have_one_public_route():
    for name in ("exact_kernel_series", "exact_kernel_quadrature"):
        assert not hasattr(fracspec, name) and not hasattr(exactops, name)
        assert name not in fracspec.__all__ and name not in exactops.__all__


def test_window_cache_keeps_the_newest_windows():
    exactops._window_cache.clear()
    orders = [0.3 + 0.01 * k for k in range(exactops._WINDOWS_CACHED + 3)]
    windows = [exact_kernel_window(a, 8) for a in orders]
    assert list(exactops._window_cache) == [(a, 8) for a in orders[3:]]
    assert exact_kernel_window(orders[-1], 8) is windows[-1]
    rebuilt = exact_kernel_window(orders[0], 8)
    exactops._window_cache.clear()
    assert rebuilt is not windows[0] and np.array_equal(rebuilt.weights, windows[0].weights)


def test_threads_building_more_windows_than_the_cache_keeps():
    # more threads than cores and more keys than the cache keeps, with a
    # short switch interval, so lookups, builds and evictions interleave
    orders = [0.3 + 0.01 * k for k in range(exactops._WINDOWS_CACHED + 3)]
    exactops._window_cache.clear()
    want = {a: exact_kernel_window(a, 16).weights for a in orders}
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers

    def work(slot):
        start.wait()
        results[slot] = [(a, exact_kernel_window(a, 16)) for a in (orders[slot:] + orders[:slot]) * 3]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(exactops._window_cache) == exactops._WINDOWS_CACHED
    exactops._window_cache.clear()
    for got in results:
        assert len(got) == 3 * len(orders)
        assert all(np.array_equal(window.weights, want[a]) for a, window in got)


def test_window_validation():
    with pytest.raises(ValueError):
        exact_kernel_window(0.5, 0)
    with pytest.raises(ValueError):
        exact_kernel_window(-1.0, 4)
    with pytest.raises(ValueError, match="must not exceed 40"):
        exact_kernel_window(exactops.ORDER_MAX + 1e-9, 4)
    exact_kernel_window(exactops.ORDER_MAX, 4)
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
    resp = complex((window.weights * np.exp(-1j * theta * np.arange(-M, M + 1))).sum())
    want = np.real(resp * np.exp(1j * theta * t))
    assert np.abs(out.values - want).max() <= 1e-10
    target_mag = theta**alpha  # |(i w0 T)^alpha|
    assert abs(resp) == pytest.approx(target_mag, rel=2e-3)


def test_exact_difference_boundary_validation():
    y = white_noise(NoiseSpec(seed=1), 16)
    window = exact_kernel_window(0.5, 4)
    with pytest.raises(ValueError):
        exact_difference(y, window, boundary="mirror")
