import cmath
import math

import numpy as np
import pytest

from fracspec import (
    NoiseSpec,
    Series,
    dft,
    exact_kernel_window,
    gl_coefficients,
    gl_response_target,
    inverse_dft,
    loglog_slope_fit,
    operator_response,
    periodogram,
    power_law_target,
    response_report,
    sample_autocovariance,
    white_noise,
)


def test_dft_impulse_and_constant():
    impulse = Series(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    spec = dft(impulse)
    assert np.abs(spec.values - 1.0).max() <= 1e-12
    const = Series(np.ones(8))
    spec = dft(const)
    assert spec.values[0] == pytest.approx(8.0, abs=1e-12)
    assert np.abs(spec.values[1:]).max() <= 1e-12


def test_dft_round_trip():
    y = white_noise(NoiseSpec(seed=8), 64)
    back = inverse_dft(dft(y))
    assert np.abs(back.values - y.values).max() <= 1e-12
    # padded round trip restores the original length
    y2 = white_noise(NoiseSpec(seed=9), 100)
    back2 = inverse_dft(dft(y2))
    assert len(back2) == 100
    assert np.abs(back2.values - y2.values).max() <= 1e-12


def test_dft_padding_policy():
    assert dft(white_noise(NoiseSpec(seed=1), 64)).n == 64
    assert dft(white_noise(NoiseSpec(seed=1), 37)).n == 37
    assert dft(white_noise(NoiseSpec(seed=1), 100)).n == 128
    assert dft(white_noise(NoiseSpec(seed=1), 128)).n == 128


def test_dft_invariants_parseval_and_symmetry():
    for n in (48, 100):
        y = white_noise(NoiseSpec(seed=n), n)
        spec = dft(y)
        lhs = np.sum(y.values**2)
        rhs = np.sum(np.abs(spec.values) ** 2) / spec.n
        assert lhs == pytest.approx(rhs, rel=1e-10)
        conj = np.conj(spec.values[1:][::-1])
        assert np.abs(spec.values[1:] - conj).max() <= 1e-10 * np.abs(spec.values).max()


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


def test_periodogram_too_short():
    with pytest.raises(ValueError):
        periodogram(Series(np.array([1.0, 2.0, 3.0])))


def test_operator_response_first_difference_at_nyquist():
    samples = operator_response(np.array([1.0, -1.0]), [math.pi])
    assert samples[0].measured == pytest.approx(2.0, abs=1e-12)


def test_operator_response_grid_validation():
    with pytest.raises(ValueError):
        operator_response(np.array([1.0, -1.0]), [0.0])
    with pytest.raises(ValueError):
        operator_response(np.array([1.0, -1.0]), [3.5])


def test_gl_response_converges_to_target():
    # sup error over [0.1 pi, pi] at least halves when the truncation doubles
    grid = np.linspace(0.1 * math.pi, math.pi, 128)
    sups = []
    for M in (256, 512, 1024, 2048):
        samples = operator_response(gl_coefficients(0.4, M), grid)
        errs = [abs(s.measured - gl_response_target(0.4, s.omega_T)) for s in samples]
        sups.append(max(errs))
    for a, b in zip(sups, sups[1:]):
        assert b <= a / 2.0


def test_exact_response_approaches_i_omega():
    # alpha = 1 kernel: Fourier series of the sawtooth, response -> +i wT
    window = exact_kernel_window(1.0, 512)
    grid = np.linspace(0.1 * math.pi, 0.9 * math.pi, 33)
    for s in operator_response(window, grid):
        want = 1j * s.omega_T
        assert abs(s.measured - want) / abs(want) <= 1e-2


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
    # matching the measured responses; the conjugate option flips the phase
    x = 0.8
    assert power_law_target(1.0, x) == pytest.approx(1j * x, abs=1e-15)
    want = x**0.5 * cmath.exp(1j * math.pi / 4.0)
    assert power_law_target(0.5, x) == pytest.approx(want, rel=1e-14)
    assert power_law_target(0.5, x, conjugate=True) == pytest.approx(
        want.conjugate(), rel=1e-14
    )


def test_response_report_gl_nyquist_magnitude_gap():
    report = response_report(0.4, "gl", 2048, [math.pi])
    s = report.samples[0]
    gap = abs(abs(s.measured) - abs(s.target)) / abs(s.target)
    assert gap == pytest.approx(1.0 - (2.0 / math.pi) ** 0.4, abs=2e-3)
    # closed-form GL target is matched far better than the power law at Nyquist
    assert report.gl_samples[0].rel_error < 1e-4
    assert s.rel_error > 0.5


def test_response_report_exact_family():
    grid = np.linspace(0.2 * math.pi, 0.8 * math.pi, 31)
    report = response_report(0.4, "exact", 256, grid)
    assert report.gl_samples is None
    assert max(s.rel_error for s in report.samples) <= 1e-2


def test_response_report_gl_agrees_with_power_law_near_zero():
    report = response_report(0.4, "gl", 2048, [0.01 * math.pi])
    assert report.samples[0].rel_error <= 1e-2


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
        combined = KernelWindow(1.0, 2 * M, conv)
        measured = np.array([s.measured for s in operator_response(combined, grid)])
        sups.append((np.abs(measured - targets) / np.abs(targets)).max())
    assert sups == sorted(sups, reverse=True)
    assert sups[-1] <= 2e-2


def test_response_report_validation():
    with pytest.raises(ValueError):
        response_report(0.4, "marchaud", 64, [1.0])


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


def test_synthesized_power_law_spectrum_slope():
    # spectral density exactly c * w^(-2 alpha) with alpha = 0.25
    omega = 2.0 * math.pi * np.arange(1, 129) / 1024.0
    power = 3.0 * omega**-0.5
    fit = loglog_slope_fit(omega, power)
    assert fit.slope == pytest.approx(-0.5, abs=max(3.0 * fit.stderr, 1e-12))
