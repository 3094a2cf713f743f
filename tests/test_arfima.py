import hashlib
import math

import numpy as np
import pytest

from fracspec import (
    ArfimaSpec,
    MemoryEstimate,
    NoiseSpec,
    Series,
    estimate_memory,
    estimate_memory_from_periodogram,
    gl_difference,
    loglog_slope_fit,
    simulate_arfima,
    theoretical_acf,
    white_noise,
)
from fracspec.arfima import _PPF_SPLIT, _norm_ppf


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(sigma=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(seed=-1)
    with pytest.raises(ValueError):
        NoiseSpec(seed=2**64)
    with pytest.raises(ValueError, match="^n must be positive$"):
        white_noise(NoiseSpec(), 0)


def test_white_noise_deterministic():
    a = white_noise(NoiseSpec(sigma=2.0, seed=99), 256)
    b = white_noise(NoiseSpec(sigma=2.0, seed=99), 256)
    assert np.array_equal(a.values, b.values)
    c = white_noise(NoiseSpec(sigma=2.0, seed=100), 256)
    assert not np.array_equal(a.values, c.values)


def test_white_noise_moments():
    sigma = 1.7
    n = 100_000
    y = white_noise(NoiseSpec(sigma=sigma, seed=7), n).values
    assert abs(y.mean()) <= 4.0 * sigma / math.sqrt(n)
    assert y.var() == pytest.approx(sigma**2, rel=0.05)


def test_white_noise_scale_is_exact():
    base = white_noise(NoiseSpec(sigma=1.0, seed=3), 64).values
    doubled = white_noise(NoiseSpec(sigma=2.0, seed=3), 64).values
    assert np.array_equal(doubled, 2.0 * base)


# sha256 of white_noise(NoiseSpec(seed=s), 50_000).values.tobytes(), frozen
# when the inverse CDF still split its input three ways by boolean masks
_NOISE_SHA256 = {
    0: "1f3fc1cb21c0a21c2cbbce348471b5454a45696e1bd5ec2be819ff9b3e5c2b40",
    12345: "c3357b47d27485036d4e64af2b4a25b73e4d02f9106fb1468ac72d582ebe2442",
    2**64 - 1: "ebf4abb530972185d9000b5c9d8847482efecfe3690409dd48bf7ef9460c293b",
}


@pytest.mark.parametrize("seed", sorted(_NOISE_SHA256))
def test_white_noise_bits_are_pinned(seed):
    values = white_noise(NoiseSpec(seed=seed), 50_000).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == _NOISE_SHA256[seed]


def test_norm_ppf_at_the_tail_split():
    # p at, just inside and just outside each split point (frozen bits); at
    # the split itself the central rational applies
    split = _PPF_SPLIT
    cases = [
        (split, "-0x1.f913f9ae19f39p+0"),
        (np.nextafter(split, 1.0), "-0x1.f913f9ae19f39p+0"),
        (np.nextafter(split, 0.0), "-0x1.f913f9c1327aep+0"),
        (1.0 - split, "0x1.f913f9ae19f39p+0"),
        (np.nextafter(1.0 - split, 0.0), "0x1.f913f9ae1a21ep+0"),
        (np.nextafter(1.0 - split, 1.0), "0x1.f913f9c1327b9p+0"),
    ]
    got = _norm_ppf(np.array([p for p, _ in cases]))
    assert [float(x).hex() for x in got] == [float.fromhex(h).hex() for _, h in cases]


def test_arfima_spec_validation():
    with pytest.raises(ValueError):
        ArfimaSpec(d=1.0, n=10)
    with pytest.raises(ValueError):
        ArfimaSpec(d=0.3, n=0)
    with pytest.raises(ValueError):
        ArfimaSpec(d=0.3, n=10, burn_in=-1)
    with pytest.raises(ValueError, match="^truncation must be nonnegative$"):
        ArfimaSpec(d=0.3, n=10, truncation=-1)
    with pytest.raises(ValueError):
        ArfimaSpec(d=0.3, n=10, ar=(1.0,))  # unit root
    with pytest.raises(ValueError):
        ArfimaSpec(d=0.3, n=10, ar=(1.2,))  # explosive
    spec = ArfimaSpec(d=0.6, n=10, ar=(0.5,))
    assert not spec.classical_stationary
    assert ArfimaSpec(d=0.3, n=10).classical_stationary


def test_simulate_identity_when_pure_noise():
    spec = ArfimaSpec(d=0.0, n=128, burn_in=16, truncation=128)
    noise = NoiseSpec(sigma=1.0, seed=11)
    out = simulate_arfima(spec, noise)
    eps = white_noise(noise, 144)
    assert np.array_equal(out.values, eps.values[16:])


def test_simulate_round_trip_recovers_noise():
    n = 512
    spec = ArfimaSpec(d=0.3, n=n, burn_in=0, truncation=n)
    noise = NoiseSpec(sigma=1.0, seed=5)
    y = simulate_arfima(spec, noise)
    eps = gl_difference(y, 0.3, n)
    want = white_noise(noise, n)
    assert np.abs(eps.values - want.values).max() <= 1e-10


@pytest.mark.parametrize("n, burn_in, ar, ma", [
    (512, 0, (), ()), (300, 40, (0.5, -0.3), (0.4,)), (5000, 0, (), ())])
def test_default_truncation_is_the_cli_rule(n, burn_in, ar, ma):
    # the library default is what `simulate` prints, min(n + burn_in, 4096),
    # where it was 4096 at every n
    rule = min(n + burn_in, 4096)
    spec = ArfimaSpec(d=0.3, n=n, ar=ar, ma=ma, burn_in=burn_in)
    assert spec.truncation == rule
    explicit = ArfimaSpec(d=0.3, n=n, ar=ar, ma=ma, burn_in=burn_in, truncation=rule)
    noise = NoiseSpec(seed=1)
    assert np.array_equal(simulate_arfima(spec, noise).values,
                          simulate_arfima(explicit, noise).values)


def test_simulate_deterministic():
    spec = ArfimaSpec(d=0.4, n=64, ar=(0.3,), ma=(-0.2,), burn_in=8, truncation=64)
    noise = NoiseSpec(sigma=0.7, seed=21)
    a = simulate_arfima(spec, noise)
    b = simulate_arfima(spec, noise)
    assert np.array_equal(a.values, b.values)


def test_simulate_scale_equivariance():
    spec = ArfimaSpec(d=0.3, n=256, truncation=256)
    base = simulate_arfima(spec, NoiseSpec(sigma=1.0, seed=9))
    scaled = simulate_arfima(spec, NoiseSpec(sigma=2.0, seed=9))
    assert np.array_equal(scaled.values, 2.0 * base.values)
    d1 = estimate_memory(base, 16)
    d2 = estimate_memory(scaled, 16)
    assert d1.d_hat == pytest.approx(d2.d_hat, abs=1e-12)


def test_simulate_ma_and_ar_pipeline():
    # q-only model: y_t = eps_t + theta * eps_{t-1}
    theta = 0.5
    spec = ArfimaSpec(d=0.0, n=64, ma=(theta,), truncation=64)
    noise = NoiseSpec(sigma=1.0, seed=2)
    y = simulate_arfima(spec, noise).values
    eps = white_noise(noise, 64).values
    want = eps.copy()
    want[1:] += theta * eps[:-1]
    assert np.abs(y - want).max() <= 1e-14
    # p-only model: y_t = phi y_{t-1} + eps_t
    phi = 0.8
    spec = ArfimaSpec(d=0.0, n=64, ar=(phi,), truncation=64)
    y = simulate_arfima(spec, noise).values
    want = np.empty(64)
    acc = 0.0
    for t in range(64):
        acc = eps[t] + phi * acc
        want[t] = acc
    assert np.abs(y - want).max() <= 1e-12


def test_estimate_memory_exact_power_law_spectrum():
    omega = 2.0 * math.pi * np.arange(1, 91) / 8192.0
    power = omega**-0.5  # exponent -2d with d = 0.25
    est = estimate_memory_from_periodogram(omega, power, bandwidth=90)
    assert est.d_hat == pytest.approx(0.25, abs=1e-10)
    assert est.classification == "long"


def test_estimate_memory_brackets_truth_cheap():
    # small-n sanity; the full 32-seed protocol lives in the acceptance suite
    ds = []
    for seed in range(8):
        y = simulate_arfima(
            ArfimaSpec(d=0.0, n=2048, truncation=2048), NoiseSpec(seed=seed)
        )
        ds.append(estimate_memory(y, math.isqrt(2048)).d_hat)
    assert -0.15 <= np.mean(ds) <= 0.15


def test_estimate_memory_validation():
    y = white_noise(NoiseSpec(seed=1), 64)
    with pytest.raises(ValueError):
        estimate_memory(y, 2)
    with pytest.raises(ValueError):
        estimate_memory(y, 33)
    flat = y.with_values(np.zeros(64))
    with pytest.raises(ValueError):
        estimate_memory(flat, 8)
    omega = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="^omega and power must have equal length$"):
        estimate_memory_from_periodogram(omega, [1.0, 2.0], 3)
    with pytest.raises(ValueError, match=r"^bandwidth must satisfy 3 <= bandwidth <= len\("):
        estimate_memory_from_periodogram(omega, [1.0, 2.0, 3.0], 4)
    with pytest.raises(ValueError, match=r"^periodogram values must be positive \(degenerate"):
        estimate_memory_from_periodogram(omega, [1.0, 0.0, 3.0], 3)


@pytest.mark.parametrize("n", [16, 100, 4096])
@pytest.mark.parametrize("c", [0.01, 0.1, 1 / 3, 7.3, 10.0, -2.5, 0.0])
def test_estimate_memory_refuses_a_constant_series(n, c):
    # the mean sum / n is not exactly c, so the periodogram is rounding noise
    with pytest.raises(ValueError, match="^series is constant: its memory cannot be estimated$"):
        estimate_memory(Series(np.full(n, c)))


@pytest.mark.parametrize("n", [16, 64, 4096])
def test_estimate_memory_refuses_a_series_without_low_frequency_power(n):
    # alternating signs put all the power at the Nyquist bin: at these
    # lengths bins 1..sqrt(n) of the padded transform are exactly 0
    with pytest.raises(ValueError, match="^series has no power at its lowest frequencies: "
                       "its memory cannot be estimated$"):
        estimate_memory(Series(np.resize([1.0, -1.0], n)))


@pytest.mark.parametrize("k", [-1000, -900, -500, 500, 1000])
def test_estimate_memory_does_not_depend_on_scale(k):
    # 2^k scales every amplitude exactly; |yhat|^2 itself would underflow or
    # overflow at |k| of 500 and more
    y = simulate_arfima(ArfimaSpec(d=0.3, n=4096, truncation=4096), NoiseSpec(seed=3))
    want = estimate_memory(y)
    got = estimate_memory(y.with_values(np.ldexp(y.values, k)))
    assert (got.d_hat, got.std_err) == (want.d_hat, want.std_err)


def test_memory_estimate_classification_rule():
    assert MemoryEstimate(0.3, 0.1, 8).classification == "long"
    assert MemoryEstimate(-0.3, 0.1, 8).classification == "short"
    assert MemoryEstimate(0.15, 0.1, 8).classification == "none"
    with pytest.raises(ValueError):
        MemoryEstimate(0.3, 0.1, 2)


def test_memory_estimate_refuses_what_no_estimator_produces():
    # 3.5 was kept and classified, a NaN error bar classified none, and a
    # negative one made every d_hat above -2|std_err| long
    whole = MemoryEstimate(0.1, 0.01, 5.0)
    assert type(whole.bandwidth) is int and whole.bandwidth == 5
    with pytest.raises(ValueError, match="^bandwidth must be an integer, got 3.5$"):
        MemoryEstimate(0.1, 0.01, 3.5)
    for d_hat, std_err, message in (
        (math.nan, 0.1, "d_hat must be finite, got nan"),
        (0.1, math.nan, "std_err must be finite, got nan"),
        (math.inf, 0.1, "d_hat must be finite, got inf"),
        (0.1, -math.inf, "std_err must be finite, got -inf"),
        (0.1, -0.5, "std_err must be nonnegative, got -0.5"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MemoryEstimate(d_hat, std_err, 5)


def test_theoretical_acf_white_noise():
    gammas = theoretical_acf(0.0, 1.5, 8, 100)
    assert gammas[0] == pytest.approx(1.5**2, rel=1e-14)
    assert np.abs(gammas[1:]).max() == 0.0


def test_theoretical_acf_matches_gamma_closed_form():
    # gamma(k)/gamma(0) = G(1-d) G(k+d) / (G(d) G(k+1-d)) for ARFIMA(0,d,0)
    d, sigma, J = 0.3, 1.0, 200_000
    gammas = theoretical_acf(d, sigma, 20, J)
    g0 = math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2
    assert gammas[0] == pytest.approx(g0, rel=5e-3)
    for k in (1, 5, 20):
        ratio = math.exp(
            math.lgamma(1.0 - d) + math.lgamma(k + d) - math.lgamma(d) - math.lgamma(k + 1.0 - d)
        )
        assert gammas[k] == pytest.approx(g0 * ratio, rel=2e-2)


def _hosking_acf(d, max_lag):
    """gamma(0) = Gamma(1-2d) / Gamma(1-d)^2, gamma(k) = gamma(k-1) (k-1+d) / (k-d)
    (Hosking, Fractional differencing, Biometrika 1981), sigma = 1."""
    k = np.arange(1, max_lag + 1)
    ratios = np.r_[1.0, np.cumprod((k - 1.0 + d) / (k - d))]
    return math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2 * ratios


@pytest.mark.parametrize("d", [-0.45, -0.3, 0.1, 0.3, 0.45])
def test_theoretical_acf_falls_short_by_its_tail(d):
    # the truncated sum omits sum_{j > J} psi_j psi_{j+k}, about
    # J^(2d-1) / ((1-2d) Gamma(d)^2) at lags well below J
    J = 100_000
    gammas = theoretical_acf(d, 1.0, 200, J)
    exact = _hosking_acf(d, 200)
    tail = J ** (2.0 * d - 1.0) / ((1.0 - 2.0 * d) * math.gamma(d) ** 2)
    for lag in (0, 200):
        assert exact[lag] - gammas[lag] == pytest.approx(tail, rel=1e-2), lag


def test_theoretical_acf_power_law_slope():
    gammas = theoretical_acf(0.3, 1.0, 200, 20_000)
    lags = np.arange(20, 201)
    fit = loglog_slope_fit(lags, gammas[20:201])
    assert fit.slope == pytest.approx(-0.4, abs=0.05)
    # ratio gamma(k) / k^(2d-1) settles to a constant
    r100 = gammas[100] / 100.0**-0.4
    r200 = gammas[200] / 200.0**-0.4
    assert r200 == pytest.approx(r100, rel=0.05)


def test_theoretical_acf_validation():
    with pytest.raises(ValueError):
        theoretical_acf(0.5, 1.0, 10, 1000)
    with pytest.raises(ValueError):
        theoretical_acf(0.3, 1.0, 20, 100)  # below 10 * max_lag
    with pytest.raises(ValueError):
        theoretical_acf(0.3, 1.0, 20, 200)  # tail estimate too large
    with pytest.raises(ValueError, match="^max_lag must be nonnegative$"):
        theoretical_acf(0.3, 1.0, -1, 10**5)
