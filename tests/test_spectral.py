import cmath
import dataclasses
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import spectral
from fracspec import (
    NoiseSpec,
    ResponseReport,
    Series,
    estimate_memory,
    estimate_memory_from_periodogram,
    exact_kernel_window,
    gl_coefficients,
    gl_response_target,
    loglog_slope_fit,
    operator_response,
    periodogram,
    power_law_target,
    response_report,
    sample_autocovariance,
    white_noise,
)
from test_kernels import _record_transforms


def test_periodogram_white_noise_level():
    sigma = 1.3
    y = white_noise(NoiseSpec(sigma=sigma, seed=42), 4096)
    omega, power = periodogram(y)
    assert omega[0] == pytest.approx(2.0 * math.pi / 4096)
    assert power.mean() == pytest.approx(sigma**2, rel=0.10)


def test_periodogram_pure_cosine_concentrates():
    n, j0 = 256, 17
    t = np.arange(n)
    y = Series(np.cos(2.0 * math.pi * j0 * t / n))
    omega, power = periodogram(y)
    peak = power[j0 - 1]
    rest = np.delete(power, j0 - 1).max()
    assert peak >= 1e3 * max(rest, 1e-300)


# series length -> periodogram transform length: exact up to 64 samples,
# zero-padded to the next power of two above
_N_FFT = {5: 5, 37: 37, 64: 64, 65: 128, 100: 128, 128: 128, 1000: 1024, 4096: 4096, 4097: 8192}


@pytest.mark.parametrize("n", list(_N_FFT))
def test_periodogram_matches_full_dft_of_centered_series(n):
    # the real-FFT periodogram against |fft|^2 / n_fft of the mean-removed
    # series: frequencies bit for bit, power to a few roundings of its scale
    n_fft = _N_FFT[n]
    y = white_noise(NoiseSpec(seed=n), n)
    y = Series(y.values + 3.0, step=0.25, start=1.0)
    omega, power = periodogram(y)
    half = n_fft // 2
    assert omega.size == power.size == half
    freqs = 2.0 * math.pi * np.arange(n_fft) / (n_fft * y.step)
    assert np.array_equal(omega, freqs[1 : half + 1])
    values = np.fft.fft(y.values - y.values.mean(), n_fft)
    want = np.abs(values[1 : half + 1]) ** 2 / n_fft
    assert np.abs(power - want).max() <= 1e-13 * want.max()


def test_periodogram_of_a_level_offset_series():
    # at n = n_fft the periodogram reads the series' memoised transform,
    # which removes the mean first, so an offset far above the fluctuations
    # leaves it within the centred test's bound of 1e-13 * max S_j; the bins
    # are bit for bit those of transforming the mean-removed values
    n = 4096
    y = Series(1e6 + white_noise(NoiseSpec(seed=19), n).values)
    omega, power = periodogram(y)
    centred = y.values - y.values.mean()
    want = np.abs(np.fft.fft(centred)[1 : n // 2 + 1]) ** 2 / n
    assert np.abs(power - want).max() <= 1e-13 * want.max()
    assert np.array_equal(power, np.abs(np.fft.rfft(centred)[1 : n // 2 + 1]) ** 2 / n)
    assert y.rfft()[0] == y.values.sum()


@pytest.mark.parametrize("n", [65, 101, 1000, 4097, 50000])
def test_padded_periodogram_reads_the_centred_memo(monkeypatch, n):
    # n_fft is the next power of two: the bins are those of the mean-removed
    # values zero-padded to it, bit for bit, memoised on the series
    y = white_noise(NoiseSpec(seed=n), n)
    n_fft = 1 << (n - 1).bit_length()
    omega, power = periodogram(y)
    v = y.values
    want = np.abs(np.fft.rfft(v - v.mean(), n_fft)[1 : n_fft // 2 + 1]) ** 2 / n_fft
    assert np.array_equal(power, want)
    assert np.array_equal(omega, 2.0 * math.pi * np.arange(1, n_fft // 2 + 1) / n_fft)
    assert list(y._spectra) == [("centred", n_fft)]
    memo = y.rfft(n_fft)
    assert not memo.flags.writeable and memo[0] == v.sum()
    calls = []
    monkeypatch.setattr(np.fft, "rfft", lambda *args: calls.append(args))
    again = periodogram(y)
    assert calls == [] and y.rfft(n_fft) is memo
    assert np.array_equal(again[1], power)


def test_periodogram_too_short():
    with pytest.raises(ValueError):
        periodogram(Series(np.array([1.0, 2.0, 3.0])))


def test_operator_response_first_difference_at_nyquist():
    measured = operator_response(np.array([1.0, -1.0]), [math.pi])
    assert measured[0] == pytest.approx(2.0, abs=1e-12)


def test_operator_response_grid_validation():
    with pytest.raises(ValueError):
        operator_response(np.array([1.0, -1.0]), [0.0])
    with pytest.raises(ValueError):
        operator_response(np.array([1.0, -1.0]), [3.5])
    for grid in ([[1.0]], []):
        with pytest.raises(ValueError, match="^grid must be a one-dimensional sequence"):
            operator_response(np.array([1.0, -1.0]), grid)


def test_gl_response_converges_to_target():
    # sup error over [0.1 pi, pi] at least halves when the truncation doubles
    grid = np.linspace(0.1 * math.pi, math.pi, 128)
    sups = []
    for M in (256, 512, 1024, 2048):
        measured = operator_response(gl_coefficients(0.4, M), grid)
        errs = [abs(h - gl_response_target(0.4, x)) for x, h in zip(grid, measured)]
        sups.append(max(errs))
    for a, b in zip(sups, sups[1:]):
        assert b <= a / 2.0


def test_exact_response_approaches_i_omega():
    # alpha = 1 kernel: Fourier series of the sawtooth, response -> +i wT
    window = exact_kernel_window(1.0, 512)
    grid = np.linspace(0.1 * math.pi, 0.9 * math.pi, 33)
    for x, h in zip(grid, operator_response(window, grid)):
        want = 1j * x
        assert abs(h - want) / abs(want) <= 1e-2


def test_gl_response_target_values():
    assert gl_response_target(1.0, math.pi) == pytest.approx(2.0, abs=1e-12)
    assert abs(gl_response_target(0.5, math.pi / 3.0)) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        gl_response_target(0.5, 0.0)
    with pytest.raises(ValueError):
        gl_response_target(0.5, 3.5)


def test_gl_target_matches_power_law_near_zero():
    for x in (0.01, 0.03, 0.05):
        ratio = gl_response_target(0.4, x) / power_law_target(0.4, x)
        assert abs(ratio - 1.0) <= 0.01


def test_power_law_target_values():
    assert power_law_target(2.0, 1.3) == pytest.approx(-1.69, rel=1e-12)
    assert abs(power_law_target(0.5, math.pi)) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert power_law_target(0.0, 0.7) == 1.0
    with pytest.raises(ValueError):
        power_law_target(0.5, 0.0)


def test_power_law_target_convention():
    # adopted (negative-exponent) convention: (i x)^alpha has phase +pi alpha/2,
    # matching the measured responses
    x = 0.8
    assert power_law_target(1.0, x) == pytest.approx(1j * x, abs=1e-15)
    want = x**0.5 * cmath.exp(1j * math.pi / 4.0)
    assert power_law_target(0.5, x) == pytest.approx(want, rel=1e-14)


def test_response_report_gl_nyquist_magnitude_gap():
    report = response_report(0.4, "gl", 2048, [math.pi])
    gap = abs(abs(report.measured[0]) - abs(report.target[0])) / abs(report.target[0])
    assert gap == pytest.approx(1.0 - (2.0 / math.pi) ** 0.4, abs=2e-3)
    # closed-form GL target is matched far better than the power law at Nyquist
    assert report.gl_rel_error[0] < 1e-4
    assert report.rel_error[0] > 0.5


def test_response_report_exact_family():
    grid = np.linspace(0.2 * math.pi, 0.8 * math.pi, 31)
    report = response_report(0.4, "exact", 256, grid)
    assert report.gl_target is None
    assert max(report.rel_error) <= 1e-2


def test_response_report_gl_agrees_with_power_law_near_zero():
    report = response_report(0.4, "gl", 2048, [0.01 * math.pi])
    assert report.rel_error[0] <= 1e-2


def test_kernel_frequency_semigroup():
    # convolving windows of orders 0.3 and 0.7 yields a window whose response
    # converges to the order-1.0 power law as the half-width grows
    from fracspec import KernelWindow

    grid = np.linspace(0.2 * math.pi, 0.8 * math.pi, 17)
    targets = np.array([power_law_target(1.0, x) for x in grid])
    sups = []
    for M in (64, 128, 256):
        wa = exact_kernel_window(0.3, M)
        wb = exact_kernel_window(0.7, M)
        conv = np.convolve(wa.weights, wb.weights)
        combined = KernelWindow(conv)
        measured = operator_response(combined, grid)
        sups.append((np.abs(measured - targets) / np.abs(targets)).max())
    assert sups == sorted(sups, reverse=True)
    assert sups[-1] <= 2e-2


def test_response_report_validation():
    with pytest.raises(ValueError):
        response_report(0.4, "marchaud", 64, [1.0])


def _cli_grid(g):
    return np.minimum(np.arange(1, g + 1) * (math.pi / g), math.pi)


def _window(family, order, size):
    if family == "gl":
        return gl_coefficients(order, size)
    return exact_kernel_window(order, size)


def _kernel(window):
    """The kernel operator_response reads: GL coefficients as causal Taps."""
    return window if isinstance(window, spectral._kernels.Taps) else spectral._kernels.Taps(window)


@pytest.mark.parametrize(
    "family,order,size,grid,n",
    [
        ("gl", 0.4, 2048, _cli_grid(256), 256),  # M >> G
        ("gl", 0.4, 16, _cli_grid(1000), 1000),  # G > M
        ("gl", 0.0, 64, _cli_grid(7), 7),  # order 0, odd G
        ("gl", -0.3, 5000, [0.01 * math.pi], 100),
        ("exact", 0.5, 1024, _cli_grid(255), 255),  # negative offsets, odd G
        ("exact", 0.5, 64, _cli_grid(301), 301),  # G > M
        ("exact", 0.0, 64, _cli_grid(5), 5),
        ("exact", 1.5, 4096, np.linspace(0.2 * math.pi, 0.8 * math.pi, 61), 100),
    ],
)
def test_folded_response_matches_direct_sum(family, order, size, grid, n):
    window = _window(family, order, size)
    kernel = _kernel(window)
    grid = np.asarray(grid)
    fold = spectral._fold_grid(grid, grid.size * len(kernel))
    assert fold is not None and fold[0] == n
    got = operator_response(window, grid)
    want = spectral._direct_response(kernel, grid)
    # the direct sum's phase error is about |wT m| eps at lag m
    scale = np.sum((1 + np.abs(kernel.lags)) * np.abs(kernel.weights))
    tol = 16 * np.finfo(np.float64).eps * scale
    assert np.abs(got - want).max() <= tol


def test_folded_response_matches_extended_precision_oracle():
    # frozen from 30-digit mpmath sums of the same float weights at the exact
    # frequency k pi / n; keys are (family, order, size, k, n)
    cases = {
        ("gl", 0.4, 2048, 1, 256): complex(0.13943443574512928279, 0.10026157109457598584),
        ("gl", 0.4, 2048, 37, 256): complex(0.62421563197426584869, 0.37204944712259814475),
        ("gl", 0.4, 2048, 241, 256): complex(1.3163753870084849199, 0.04848480416034994902),
        ("gl", 0.4, 2048, 256, 256): complex(1.3195048052967321474, 0.0),
        ("exact", 0.5, 1024, 1, 256): complex(0.078407559518961287922, 0.077643515062387614355),
        ("exact", 0.5, 1024, 100, 256): complex(0.7833171013696916804, 0.78304084252046426498),
        ("exact", 0.5, 1024, 256, 256): complex(1.253185885571075818, 0.0),
        ("gl", 0.4, 100000, 1, 100): complex(0.20360100557583612931, 0.14597826046785690575),
        ("exact", 0.5, 100000, 1, 3): complex(0.72360126347882155795, 0.72360586112401007594),
    }
    for (family, order, size, k, n), want in cases.items():
        # entry k - 1 of the CLI grid j pi / n is bin k of the spectrum at 2n
        window = _window(family, order, size)
        grid = _cli_grid(n)
        assert spectral._fold_grid(grid, grid.size * len(window))[0] == n
        got = operator_response(window, grid)[k - 1]
        assert abs(got - want) <= 1e-14 * abs(want), (family, size, k, n)


def test_folded_response_reads_the_window_spectrum_memo():
    # the fold of a cached exact window is its memoised spectrum at 2N
    window = exact_kernel_window(0.5, 300)
    grid = _cli_grid(64)
    first = operator_response(window, grid)
    spectrum = window.spectrum(128)
    assert np.array_equal(first, spectrum[1:65])
    assert np.array_equal(operator_response(window, grid), first)
    assert window.spectrum(128) is spectrum


@pytest.mark.parametrize(
    "grid",
    [
        np.geomspace(0.01 * math.pi, math.pi, 64),  # criterion 7a's grid
        np.array([1.0]),
        np.array([0.5, 1.0, 2.0]),
        np.array([math.pi / 4, math.pi / 3 + 1e-9]),
        np.array([5e-324]),  # pi over the gap overflows
        np.array([1e-300, 2e-300]),
    ],
)
def test_other_grids_take_the_direct_sum(grid):
    window = gl_coefficients(0.4, 2048)
    assert spectral._fold_grid(grid, grid.size * window.size) is None
    want = spectral._direct_response(_kernel(window), grid)
    assert np.array_equal(operator_response(window, grid), want)


def test_fold_length_is_bounded_by_cost_and_block():
    grid = np.array([math.pi / 1000, math.pi / 8])
    assert spectral._fold_grid(grid, 2000)[0] == 1000
    assert spectral._fold_grid(grid, 1999) is None
    grid = np.array([math.pi / 1000, math.pi / 999])  # N = 999000
    assert spectral._fold_grid(grid, 2 * 999_000)[0] == 999_000
    assert spectral._fold_grid(grid, 2 * 999_000 - 1) is None
    half_block = spectral._BLOCK // 2
    assert spectral._fold_grid(np.array([math.pi / half_block]), 10**12)[0] == half_block
    assert spectral._fold_grid(np.array([math.pi / (half_block + 1)]), 10**12) is None


def _searched_fold(grid, cost):
    """The least N with every grid value within _FOLD_TOL of some k pi / N
    and 2N at most ``cost`` and _BLOCK, by a rational search: each pass
    reads the denominator of a value that is off the multiples of pi / N
    from its best rational approximation, and raises N to the lcm."""
    limit = int(min(cost, spectral._BLOCK)) // 2
    r = grid / math.pi
    n = 1
    while limit >= 1:
        x = r * n
        k = np.rint(x)
        off = np.abs(x - k) > spectral._FOLD_TOL * k
        if not off.any():
            return n, k.astype(np.int64)
        q = Fraction(float(r[off.argmax()])).limit_denominator(limit).denominator
        lcm = math.lcm(n, q)
        if lcm == n or lcm > limit:
            break
        n = lcm
    return None


@st.composite
def _multiples_grid(draw):
    """k pi / N for k drawn from 1..N, with k = 1 or two adjacent k among
    them (a gap of pi / N), in any order."""
    n = draw(st.integers(1, 5000))
    j = draw(st.integers(0, n - 1))
    ks = draw(st.lists(st.integers(1, n), max_size=20)) + ([1] if j == 0 else [j, j + 1])
    ks = draw(st.permutations(sorted(set(ks))))
    return np.minimum(np.array(ks) * math.pi / n, math.pi)


@settings(max_examples=60, deadline=None)
@given(_multiples_grid())
def test_fold_rule_finds_the_least_n_of_the_rational_search(grid):
    window = exact_kernel_window(0.5, 5000)
    cost = grid.size * len(window)
    fold = spectral._fold_grid(grid, cost)
    want = _searched_fold(grid, cost)
    assert fold is not None and want is not None
    assert fold[0] == want[0] and np.array_equal(fold[1], want[1])
    n, k = fold
    assert np.array_equal(operator_response(window, grid), window.spectrum(2 * n)[k])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=20))
def test_irrational_grids_take_the_direct_sum(values):
    window = exact_kernel_window(0.5, 5000)
    grid = np.array(values)
    assert spectral._fold_grid(grid, grid.size * len(window)) is None
    assert np.array_equal(operator_response(window, grid),
                          spectral._direct_response(window, grid))


def test_cli_grid_response_builds_no_grid_by_lag_matrix():
    tracemalloc.start()
    try:
        response_report(0.4, "gl", 10**6, _cli_grid(256))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the GL coefficients themselves take a few 8 MB arrays; a 256 x 1e6
    # complex matrix would be 4 GB, one block of the direct sum 64 MB
    assert peak <= 6 * 8 * (10**6 + 1)


def test_criterion_7a_tolerance_is_first_met_at_89416_lags():
    # criterion 7a's worst grid point is its lowest, wT = 0.01 pi, where the
    # truncation tail |c_M| / |1 - e^{-i wT}| is largest
    def err(truncation):
        return response_report(0.4, "gl", truncation, [0.01 * math.pi]).gl_abs_error[0]

    assert err(2048) > 1e-4
    assert err(89_415) > 1e-6 >= err(89_416)


def test_response_report_columns():
    grid = _cli_grid(8)
    report = response_report(0.4, "gl", 64, grid)
    assert np.array_equal(report.omega_T, grid)
    for j, x in enumerate(grid):
        # vectorised columns against scalar arithmetic, which can round
        # differently in the last bit; the GL target against its cartesian form
        target, gl_target = report.target[j], report.gl_target[j]
        assert target == pytest.approx(power_law_target(0.4, x), rel=1e-15)
        assert gl_target == pytest.approx((1 - cmath.exp(-1j * x)) ** 0.4, rel=1e-14)
        assert report.abs_error[j] == pytest.approx(abs(report.measured[j] - target), rel=1e-15)
        assert report.rel_error[j] == pytest.approx(report.abs_error[j] / abs(target), rel=1e-15)
        gl_rel = report.gl_abs_error[j] / abs(gl_target)
        assert report.gl_rel_error[j] == pytest.approx(gl_rel, rel=1e-15)


def test_response_report_holds_only_result_columns():
    # the caller already has the order, family and truncation it passed in
    names = [f.name for f in dataclasses.fields(ResponseReport)]
    assert names == [
        "omega_T", "measured", "target", "abs_error", "rel_error",
        "gl_target", "gl_abs_error", "gl_rel_error",
    ]


def test_sample_autocovariance_lag_zero_is_variance():
    y = white_noise(NoiseSpec(seed=5), 512)
    acov = sample_autocovariance(y, 16)
    centered = y.values - y.values.mean()
    assert acov[0] == pytest.approx(np.mean(centered**2), rel=1e-12)


def test_sample_autocovariance_white_noise_bound():
    # |rho(k)| <= 4/sqrt(n) for at least 95% of lags, i.i.d. input
    for seed in (1, 2, 3):
        y = white_noise(NoiseSpec(seed=seed), 2048)
        acov = sample_autocovariance(y, 200)[1:]
        frac = np.mean(np.abs(acov) <= 4.0 / math.sqrt(2048))
        assert frac >= 0.95


def test_sample_autocovariance_matches_brute_force_sum():
    y = white_noise(NoiseSpec(seed=8), 3000)
    acov = sample_autocovariance(y, 200)
    c = y.values - y.values.mean()
    want = np.array([math.fsum(c[k:] * c[: c.size - k]) / c.size for k in range(201)])
    assert acov.shape == (201,)
    assert np.abs(acov - want).max() <= 1e-12 * want[0]


@pytest.mark.parametrize(
    "n,max_lag",
    # both sides of the former direct/FFT crossover, and lags from none to n - 1
    [(n, lag) for n in (5, 223, 224, 300, 3000) for lag in (0, 1, 40) if lag < n]
    + [(224, 223), (3000, 2999)],
)
def test_sample_autocovariance_transforms_only_the_kept_lags(monkeypatch, n, max_lag):
    # one forward transform of the centred series and one inverse, both at
    # the 5-smooth length from n + max_lag, at every n
    y = white_noise(NoiseSpec(seed=n + max_lag), n)
    rffts, irffts = _record_transforms(monkeypatch)
    acov = sample_autocovariance(y, max_lag)
    monkeypatch.undo()
    c = y.values - y.values.mean()
    want = np.array([math.fsum(c[k:] * c[: n - k]) / n for k in range(max_lag + 1)])
    assert acov.shape == (max_lag + 1,)
    assert np.abs(acov - want).max() <= 1e-13 * np.abs(c).sum() * np.abs(c).max() / n
    size = spectral._kernels._fft_length(n + max_lag)
    assert (rffts, irffts) == ([size], [size])


def test_periodogram_and_acf_share_one_transform(monkeypatch):
    # n = 4000 with 96 lags transforms at 4096, the periodogram's n_fft: the
    # centred series is transformed once for both
    y = white_noise(NoiseSpec(seed=31), 4000)
    assert spectral._kernels._fft_length(4000 + 96) == spectral._fft_size(4000) == 4096
    rffts, irffts = _record_transforms(monkeypatch)
    periodogram(y)
    sample_autocovariance(y, 96)
    assert (rffts, irffts) == ([4096], [4096])


def test_sample_autocovariance_lag_validation():
    y = white_noise(NoiseSpec(seed=5), 32)
    with pytest.raises(ValueError):
        sample_autocovariance(y, 32)
    with pytest.raises(ValueError):
        sample_autocovariance(y, -1)


def test_loglog_slope_fit_exact_power_law():
    xs = np.geomspace(1.0, 100.0, 30)
    fit = loglog_slope_fit(xs, 2.7 * xs**-0.8)
    assert fit.slope == pytest.approx(-0.8, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(2.7), abs=1e-12)
    flat = loglog_slope_fit(xs, np.full(30, 5.0))
    assert flat.slope == pytest.approx(0.0, abs=1e-13)


def test_loglog_slope_fit_validation():
    with pytest.raises(ValueError):
        loglog_slope_fit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        loglog_slope_fit([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError, match="^x values must not be all equal$"):
        loglog_slope_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


_FIT_NOT_FINITE = "log-log fit requires finite values"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: loglog_slope_fit([1, 2, math.inf], [1, 2, 3]), _FIT_NOT_FINITE),
        (lambda: loglog_slope_fit([1, 2, 3], [1, 2, math.inf]), _FIT_NOT_FINITE),
        (lambda: estimate_memory_from_periodogram([1, 2, 3], [1, 2, math.inf], 3),
         _FIT_NOT_FINITE),
        (lambda: power_law_target(0.5, math.inf), "omega_T must be positive and finite"),
        (lambda: power_law_target(0.5, [1.0, math.inf]), "omega_T must be positive and finite"),
    ],
    ids=["fit-x", "fit-y", "periodogram-power", "target-scalar", "target-array"],
)
def test_non_finite_inputs_are_refused(call, message):
    # they gave SlopeFit(nan, nan, nan), d_hat = -inf and inf + inf j
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal comes before any RuntimeWarning
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


# values whose sum overflows, so their centred transform does
_SUM_OVERFLOWS = np.r_[np.full(32, 1e308), np.full(32, 9e307)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: periodogram(Series(np.tile([1e306, -1e306], 64))),
        lambda: sample_autocovariance(Series(np.tile([1e200, -1e200], 32)), 2),
        lambda: periodogram(Series(_SUM_OVERFLOWS)),
        lambda: estimate_memory(Series(_SUM_OVERFLOWS)),
        lambda: operator_response(np.full(4, 1e308), np.arange(1, 9) * np.pi / 8),
        lambda: operator_response(np.array([1e308, 1e308]), [1e-3]),
    ],
    ids=["periodogram", "sample_autocovariance", "periodogram-centring",
         "estimate_memory-centring", "operator_response-fold", "operator_response-direct"],
)
def test_results_beyond_the_double_range_are_refused(call):
    # they returned S = inf with an overflow warning, and [inf, -inf, inf];
    # the centring's sum and both response routes warned before the refusal
    # or returned inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^result is not finite: values exceed the "
                                             "double-precision range$"):
            call()


@pytest.mark.parametrize("target", [power_law_target, gl_response_target])
@pytest.mark.parametrize("order", [math.inf, -math.inf, math.nan])
def test_targets_refuse_a_non_finite_order(target, order):
    # they raised OverflowError or an unrelated NaN message, or returned nan + nan j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^order must be finite, got {order}$"):
            target(order, 1.0)


def test_synthesized_power_law_spectrum_slope():
    # spectral density exactly c * w^(-2 alpha) with alpha = 0.25
    omega = 2.0 * math.pi * np.arange(1, 129) / 1024.0
    power = 3.0 * omega**-0.5
    fit = loglog_slope_fit(omega, power)
    assert fit.slope == pytest.approx(-0.5, abs=max(3.0 * fit.stderr, 1e-12))
