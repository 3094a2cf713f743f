"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import subprocess
import sys
from contextlib import contextmanager

import numpy as np

from fracspec import (
    ArfimaSpec,
    NoiseSpec,
    Series,
    estimate_memory,
    estimate_memory_from_periodogram,
    exact_kernel_window,
    gl_coefficients,
    gl_derivative_approx,
    gl_difference,
    gl_response_target,
    loglog_slope_fit,
    operator_response,
    power_law_target,
    simulate_arfima,
    theoretical_acf,
    white_noise,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"[criterion {num}] FAIL — {desc}")
        raise
    print(f"[criterion {num}] PASS — {desc}")


def _measured(weights, grid):
    return operator_response(weights, grid)


def test_criterion_1_integer_reduction():
    with criterion("01", "integer-order GL differences equal direct differences"):
        y = white_noise(NoiseSpec(seed=101), 1024).values
        series = Series(y)
        direct = {
            1: np.concatenate(([y[0]], y[1:] - y[:-1])),
            2: np.concatenate(([y[0], y[1] - 2 * y[0]], y[2:] - 2 * y[1:-1] + y[:-2])),
            3: np.concatenate(
                (
                    [y[0], y[1] - 3 * y[0], y[2] - 3 * y[1] + 3 * y[0]],
                    y[3:] - 3 * y[2:-1] + 3 * y[1:-2] - y[:-3],
                )
            ),
        }
        for order, want in direct.items():
            got = gl_difference(series, float(order), 8).values
            # one ulp per term, at the magnitude of the largest term
            tol = (order + 1) * np.spacing(2.0**order * np.abs(y).max())
            assert np.abs(got - want).max() <= tol, f"order {order}"


def test_criterion_2_coefficient_semigroup():
    with criterion("02", "GL coefficient convolution is the summed-order sequence"):
        for a, b in ((0.3, 0.7), (-0.5, 1.2)):
            ca = gl_coefficients(a, 64)
            cb = gl_coefficients(b, 64)
            cab = gl_coefficients(a + b, 64)
            conv = np.convolve(ca, cb)[:65]
            assert np.abs(conv - cab).max() <= 1e-12, (a, b)


def test_criterion_3_inversion_identity():
    with criterion("03", "integrate-then-difference recovers the input"):
        y = white_noise(NoiseSpec(seed=103), 512)
        for d in (0.1, 0.45, 0.9):
            back = gl_difference(gl_difference(y, -d, 512), d, 512)
            assert np.abs(back.values - y.values).max() <= 1e-10, d


def test_criterion_4_kernel_oracle_equivalence(route_kernel):
    with criterion("04", "series and quadrature kernel routes agree to 1e-8"):
        for alpha in (-0.5, 0.5, 1.0, 1.5, 2.0):
            for m in range(-4, 5):
                s = route_kernel("series", alpha, m)
                q = route_kernel("quadrature", alpha, m)
                assert abs(s - q) <= 1e-8, (alpha, m)


def test_criterion_5_integer_order_closed_forms():
    with criterion("05", "alpha=1,2 kernels match closed forms to 1e-9 for |m|<=20"):
        w1 = exact_kernel_window(1.0, 20)
        w2 = exact_kernel_window(2.0, 20)
        for m in range(-20, 21):
            want1 = 0.0 if m == 0 else (-1.0) ** m / m
            want2 = -math.pi**2 / 3.0 if m == 0 else -2.0 * (-1.0) ** m / m**2
            assert abs(w1.weights[20 + m] - want1) <= 1e-9, ("alpha=1", m)
            assert abs(w2.weights[20 + m] - want2) <= 1e-9, ("alpha=2", m)


def test_criterion_6_exact_power_law():
    with criterion("06", "exact response matches (i wT)^0.5 on [0.2pi, 0.8pi]"):
        grid = np.linspace(0.2 * math.pi, 0.8 * math.pi, 61)
        targets = np.array([power_law_target(0.5, x) for x in grid])
        sups = []
        for half_width in (128, 256, 512, 1024):
            measured = _measured(exact_kernel_window(0.5, half_width), grid)
            rel = np.abs(measured - targets) / np.abs(targets)
            sups.append(rel.max())
        assert sups[-1] <= 1e-2, f"rel error {sups[-1]:.3e} at half-width 1024"
        for a, b in zip(sups, sups[1:]):
            assert b <= a, f"sup error not monotone: {sups}"


def test_criterion_7a_gl_matches_own_transform():
    with criterion(
        "07a", "GL response matches (1 - e^{-i wT})^0.4 within 1e-6 (truncation 2048)"
    ):
        grid = np.geomspace(0.01 * math.pi, math.pi, 64)
        measured = _measured(gl_coefficients(0.4, 2048), grid)
        targets = np.array([gl_response_target(0.4, x) for x in grid])
        err = np.abs(measured - targets).max()
        # Stated tolerance. The truncated binomial-series tail decays like
        # |c_M| / |1 - e^{-i wT}| ~ 1e-4 near wT = 0.01 pi, so 1e-6 is not
        # reachable at truncation 2048; see the decisions ledger.
        assert err <= 1e-6, f"max |measured - target| = {err:.3e}"


def test_criterion_7b_gl_power_law_near_zero_only():
    with criterion(
        "07b", "GL magnitude gap vs power law: <=1e-2 below 0.05pi, >=0.15 at pi"
    ):
        coeffs = gl_coefficients(0.4, 2048)
        low_grid = np.geomspace(0.01 * math.pi, 0.05 * math.pi, 17)
        measured = _measured(coeffs, low_grid)
        target_mag = low_grid**0.4
        gap = np.abs(np.abs(measured) - target_mag) / target_mag
        assert gap.max() <= 1e-2, f"low-frequency gap {gap.max():.3e}"
        nyquist = _measured(coeffs, [math.pi])[0]
        gap_pi = abs(abs(nyquist) - math.pi**0.4) / math.pi**0.4
        assert gap_pi >= 0.15, f"Nyquist gap {gap_pi:.3f}"


def test_criterion_8_acf_exponent():
    with criterion("08", "theoretical ACF log-log slope is 2d-1 = -0.4 +/- 0.05"):
        gammas = theoretical_acf(0.3, 1.0, 200, 200_000)
        lags = np.arange(20, 201)
        fit = loglog_slope_fit(lags, gammas[20:201])
        assert abs(fit.slope - (-0.4)) <= 0.05, f"slope {fit.slope:.4f}"


def test_criterion_9_spectral_exponent_and_estimator():
    with criterion("09", "log-periodogram estimator: ARFIMA, white noise, exact law"):
        n = 8192
        bandwidth = int(math.isqrt(n))  # 90
        seeds = range(1, 33)
        arfima_spec = ArfimaSpec(d=0.3, n=n, burn_in=0, truncation=n)
        d_arfima = [
            estimate_memory(simulate_arfima(arfima_spec, NoiseSpec(seed=s)), bandwidth).d_hat
            for s in seeds
        ]
        mean_arfima = float(np.mean(d_arfima))
        assert 0.2 <= mean_arfima <= 0.4, f"ARFIMA mean d_hat {mean_arfima:.4f}"

        d_noise = [
            estimate_memory(white_noise(NoiseSpec(seed=s), n), bandwidth).d_hat
            for s in seeds
        ]
        mean_noise = float(np.mean(d_noise))
        assert -0.1 <= mean_noise <= 0.1, f"white-noise mean d_hat {mean_noise:.4f}"

        omega = 2.0 * math.pi * np.arange(1, bandwidth + 1) / n
        power = omega**-0.5  # exact power law, exponent -2 alpha with alpha = 0.25
        est = estimate_memory_from_periodogram(omega, power, bandwidth)
        assert abs(est.d_hat - 0.25) <= 1e-10, f"exact-law d_hat {est.d_hat!r}"


def test_criterion_10_gl_derivative_quotient():
    with criterion("10", "GL derivative quotient converges to 1 for exp at t=0"):
        steps = (0.1, 0.05, 0.025)
        errors = []
        for step in steps:
            got = gl_derivative_approx(math.exp, 0.5, 0.0, step, 4000)
            want = ((1.0 - math.exp(-step)) / step) ** 0.5
            assert abs(got - want) <= 1e-10, f"step {step}: closed-form gap"
            errors.append(abs(got - 1.0))
        assert errors[0] > errors[1] > errors[2], f"errors not decreasing: {errors}"


def test_criterion_11_cli_round_trip(tmp_path):
    with criterion("11", "CLI simulate -> estimate pipeline, byte-identical reruns"):
        sim = subprocess.run(
            [sys.executable, "-m", "fracspec", "simulate", "--d", "0.3", "--n", "2048",
             "--seed", "7", "--truncation", "2048"],
            capture_output=True,
            timeout=600,
        )
        assert sim.returncode == 0, sim.stderr.decode()
        est = subprocess.run(
            [sys.executable, "-m", "fracspec", "estimate", "--bandwidth", "45"],
            input=sim.stdout,
            capture_output=True,
            timeout=600,
        )
        assert est.returncode == 0, est.stderr.decode()
        header, row = est.stdout.decode().strip().splitlines()
        assert header == "d_hat,std_err,bandwidth,n,classification"
        d_hat = float(row.split(",")[0])
        assert -0.2 <= d_hat <= 0.8, f"pipeline d_hat {d_hat}"

        for args in (
            ["simulate", "--d", "0.3", "--n", "256", "--seed", "9"],
            ["response", "--family", "exact", "--order", "0.5",
             "--truncation", "32", "--grid", "16"],
            ["kernel", "--order", "1.5", "--half-width", "8"],
        ):
            out1 = tmp_path / "r1.csv"
            out2 = tmp_path / "r2.csv"
            from fracspec.cli import main

            assert main(args + ["-o", str(out1)]) == 0
            assert main(args + ["-o", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes(), args[0]
