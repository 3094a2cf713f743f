import ast
import errno
import importlib
import io
import math
import os
import subprocess
import sys
import tomllib
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fracspec import NoiseSpec, white_noise
from fracspec import arfima, cli, exactops, glops
from fracspec.cli import main, parse_series_csv
from fracspec.errors import ConsistencyError
from test_kernels import _brute_causal, _brute_two_sided


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(text):
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line[0].isalpha():
            continue
        rows.append([float(f) for f in line.split(",")])
    return np.array(rows)


def test_kernel_command_alpha_one(capsys):
    code, out, err = run_cli(["kernel", "--order", "1", "--half-width", "3"], capsys)
    assert code == 0 and err == ""
    rows = parse_rows(out)
    want = [1 / 3, -1 / 2, 1.0, 0.0, -1.0, 1 / 2, -1 / 3]
    assert rows[:, 0].tolist() == [-3, -2, -1, 0, 1, 2, 3]
    assert np.abs(rows[:, 1] - want).max() <= 1e-9


def test_coeffs_command(capsys):
    code, out, _ = run_cli(["coeffs", "--order", "0.5", "--truncation", "3"], capsys)
    assert code == 0
    rows = parse_rows(out)
    assert rows[:, 1].tolist() == [1.0, -0.5, -0.125, -0.0625]


def test_simulate_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--d", "0.3", "--n", "64", "--seed", "5"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_metadata_header(capsys):
    code, out, _ = run_cli(
        ["simulate", "--d", "0.6", "--n", "4", "--seed", "1"], capsys
    )
    assert code == 0
    assert "# d=0.6, p=0, q=0, sigma=1, seed=1, truncation=4" in out
    assert "stationary=false" in out


def test_difference_round_trip_recovers_noise(tmp_path, capsys):
    n, seed, d = 128, 3, 0.3
    sim = tmp_path / "y.csv"
    assert main(
        ["simulate", "--d", str(d), "--n", str(n), "--seed", str(seed),
         "--truncation", str(n), "-o", str(sim)]
    ) == 0
    code, out, _ = run_cli(
        ["difference", "--input", str(sim), "--order", str(d), "--truncation", str(n)],
        capsys,
    )
    assert code == 0
    got = parse_rows(out)[:, 1]
    want = white_noise(NoiseSpec(seed=seed), n).values
    # agreement at printed precision (12 significant digits)
    assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())


def test_difference_exact_family(tmp_path, capsys):
    sim = tmp_path / "y.csv"
    assert main(["simulate", "--d", "0", "--n", "32", "--seed", "2", "-o", str(sim)]) == 0
    code, out, _ = run_cli(
        ["difference", "--input", str(sim), "--order", "0.5", "--family", "exact",
         "--half-width", "8", "--boundary", "periodic"],
        capsys,
    )
    assert code == 0
    assert parse_rows(out).shape == (32, 2)


def test_spectrum_command(tmp_path, capsys):
    sim = tmp_path / "y.csv"
    assert main(["simulate", "--d", "0", "--n", "64", "--seed", "4", "-o", str(sim)]) == 0
    code, out, _ = run_cli(["spectrum", "--input", str(sim)], capsys)
    assert code == 0
    rows = parse_rows(out)
    assert rows.shape == (32, 2)
    assert rows[0, 0] == pytest.approx(2.0 * math.pi / 64)
    assert "normalization" in out


@pytest.mark.parametrize("n,n_fft", [(37, 37), (64, 64), (65, 128), (101, 128)])
def test_spectrum_header_reports_the_transform_length(n, n_fft, tmp_path, capsys):
    series = tmp_path / "y.csv"
    series.write_text("t,value\n" + "".join(f"{t},{(t * 7919) % 13 - 6}\n" for t in range(n)))
    code, out, err = run_cli(["spectrum", "--input", str(series)], capsys)
    assert (code, err) == (0, "")
    assert f"# n={n}, n_fft={n_fft}, step=1\n" in out
    assert parse_rows(out).shape == (n_fft // 2, 2)


def test_response_command_nyquist_magnitude_gap(capsys):
    code, out, _ = run_cli(
        ["response", "--family", "gl", "--order", "0.4", "--truncation", "2048",
         "--grid", "32"],
        capsys,
    )
    assert code == 0
    rows = parse_rows(out)
    assert rows.shape == (32, 6)
    last = rows[-1]
    assert last[0] == pytest.approx(math.pi)
    measured_mag = abs(complex(last[1], last[2]))
    target_mag = abs(complex(last[3], last[4]))
    gap = abs(measured_mag - target_mag) / target_mag
    assert gap == pytest.approx(1.0 - (2.0 / math.pi) ** 0.4, abs=2e-3)


def test_response_rerun_is_byte_identical(tmp_path):
    args = ["response", "--family", "exact", "--order", "0.5", "--truncation", "32",
            "--grid", "16"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_estimate_command(tmp_path, capsys):
    sim = tmp_path / "y.csv"
    assert main(
        ["simulate", "--d", "0.3", "--n", "4096", "--seed", "7", "-o", str(sim)]
    ) == 0
    code, out, _ = run_cli(["estimate", "--input", str(sim), "--bandwidth", "64"], capsys)
    assert code == 0
    header, row = [l for l in out.splitlines() if l]
    assert header == "d_hat,std_err,bandwidth,n,classification"
    fields = row.split(",")
    d_hat = float(fields[0])
    assert 0.0 <= d_hat <= 0.65
    assert fields[2] == "64" and fields[3] == "4096"
    assert fields[4] in ("long", "short", "none")


@pytest.mark.parametrize(
    "n,flags,message",
    [
        # the default bandwidth floor(sqrt(n)) is 2 below 9 samples
        (5, [], "series needs at least 9 samples for the default bandwidth, got n=5"),
        (8, [], "series needs at least 9 samples for the default bandwidth, got n=8"),
        (8, ["--bandwidth", "2"], "bandwidth must satisfy 3 <= bandwidth <= n/2"),
    ],
)
def test_estimate_of_a_short_series_names_its_cause(n, flags, message, tmp_path, capsys):
    path = tmp_path / "y.csv"
    path.write_text("t,value\n" + "".join(f"{t},{(-1) ** t + 0.1 * t}\n" for t in range(n)))
    code, out, err = run_cli(["estimate", "--input", str(path), *flags], capsys)
    assert (code, out, err) == (1, "", f"fracspec: {message}\n")


def test_estimate_of_a_constant_series_names_its_cause(tmp_path, capsys):
    path = tmp_path / "y.csv"
    path.write_text("t,value\n" + "".join(f"{t},0.1\n" for t in range(100)))
    code, out, err = run_cli(["estimate", "--input", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "fracspec: series is constant: its memory cannot be estimated\n"


def test_acf_sample_and_theoretical(tmp_path, capsys):
    sim = tmp_path / "y.csv"
    assert main(["simulate", "--d", "0", "--n", "256", "--seed", "6", "-o", str(sim)]) == 0
    code, out, _ = run_cli(["acf", "--input", str(sim), "--max-lag", "8"], capsys)
    assert code == 0
    assert parse_rows(out).shape == (9, 2)
    code, out, _ = run_cli(
        ["acf", "--d", "0.3", "--max-lag", "8", "--truncation", "5000"], capsys
    )
    assert code == 0
    rows = parse_rows(out)
    assert rows.shape == (9, 2)
    assert rows[0, 1] > rows[8, 1] > 0.0


def test_exit_code_usage_error(capsys):
    code, _, err = run_cli(["simulate", "--n", "8"], capsys)  # missing --d
    assert code == 1 and err != ""
    code, _, err = run_cli(["acf", "--max-lag", "8"], capsys)  # neither input nor d
    assert code != 0


def test_exit_code_validation_error(capsys):
    code, _, err = run_cli(["simulate", "--d", "1.5", "--n", "8"], capsys)
    assert code == 1 and "d must satisfy" in err
    code, out, err = run_cli(
        ["response", "--family", "gl", "--order", "0.4", "--truncation", "16", "--grid", "0"],
        capsys,
    )
    assert code == 1 and out == "" and err == "fracspec: usage error: --grid must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--order", "nan", "--truncation", "3"],
        ["kernel", "--order", "inf", "--half-width", "3"],
        ["response", "--family", "gl", "--order", "nan", "--truncation", "16", "--grid", "4"],
    ],
)
def test_exit_code_non_finite_order(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "order must be finite" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--d", "0.3", "--n", "8", "--sigma", "inf"], "sigma must be finite, got inf"),
        (["acf", "--d", "0.3", "--max-lag", "5", "--sigma", "inf"],
         "sigma must be finite, got inf"),
        (["simulate", "--d", "nan", "--n", "8"], "d must be finite, got nan"),
        (["acf", "--d", "nan", "--max-lag", "5"], "d must be finite, got nan"),
    ],
)
def test_non_finite_sigma_and_d_are_refused_by_name(argv, message, capsys):
    # they said "overflows" and blamed the range of d
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", f"fracspec: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["coeffs", "--order", "1e300", "--truncation", "4"],
         "GL coefficients of order 1e+300 are not finite at truncation 4"),
        (["response", "--family", "gl", "--order", "1100", "--truncation", "8", "--grid", "4"],
         "response of order 1100 is not finite on this grid"),
        (["response", "--family", "gl", "--order", "1100", "--truncation", "2048",
          "--grid", "4"], "GL coefficients of order 1100 are not finite at truncation 2048"),
        (["response", "--family", "exact", "--order", "1e300", "--truncation", "8"],
         "kernel order must not exceed 40, got 1e+300"),
        # orders above exactops.ORDER_MAX at which the kernel routes disagree
        # beyond the cross-check tolerance, on windows with and without
        # asymptotic lags
        (["kernel", "--order", "47.5", "--half-width", "64"],
         "kernel order must not exceed 40, got 47.5"),
        (["kernel", "--order", "100", "--half-width", "11"],
         "kernel order must not exceed 40, got 100"),
    ],
)
def test_exit_code_overflowing_order(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr
        code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", f"fracspec: {message}\n")


# an 8-row series of +-1e308: every value finite, its spectrum and
# autocovariance not
_HUGE_SIGNS = (1, -1, 1, -1, 1, -1, -1, 1)
_NOT_FINITE = "result is not finite: values exceed the double-precision range"


def _step_out_of_range(step):
    return (f"series step {step!r} takes the times or frequencies of 4 samples beyond the "
            "double-precision range")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["spectrum", "--input", "HUGE"], _NOT_FINITE),
        (["estimate", "--input", "HUGE", "--bandwidth", "3"], _NOT_FINITE),
        (["acf", "--input", "HUGE", "--max-lag", "3"], _NOT_FINITE),
        (["simulate", "--d", "0.3", "--n", "8", "--sigma", "1e308"],
         "noise overflows at sigma=1e+308"),
        # sigma^2 overflows, then gamma(0) = 1.31 sigma^2 does
        (["acf", "--d", "0.3", "--max-lag", "5", "--sigma", "1e200"],
         "theoretical ACF overflows at sigma=1e+200"),
        (["acf", "--d", "0.3", "--max-lag", "5", "--sigma", "1.2e154", "--truncation", "100000"],
         "theoretical ACF overflows at sigma=1.2e+154"),
        # differences and simulations whose output overflows, not their input
        (["difference", "--input", "HUGE", "--order", "3", "--truncation", "4"], _NOT_FINITE),
        (["difference", "--input", "HUGE", "--family", "exact", "--order", "3",
          "--half-width", "3"], _NOT_FINITE),
        (["difference", "--input", "HUGE", "--family", "exact", "--boundary", "periodic",
          "--order", "0.5", "--half-width", "3"], _NOT_FINITE),
        (["simulate", "--d", "0.9", "--n", "2000", "--sigma", "1e306"], _NOT_FINITE),
        (["simulate", "--d", "0.3", "--n", "100", "--ma", "10", "--sigma", "1e307"], _NOT_FINITE),
        # four samples of 1e308, whose mean overflows
        (["acf", "--input", "LEVEL", "--max-lag", "2"], _NOT_FINITE),
        # four finite, uniform times whose span 2 n step, or top frequency
        # pi / step, is not finite
        (["spectrum", "--input", "WIDE"], _step_out_of_range(4e307)),
        (["spectrum", "--input", "NARROW"], _step_out_of_range(1e-320)),
    ],
)
def test_finite_input_with_non_finite_result_is_one_line(argv, message, tmp_path, capsys):
    files = {name: tmp_path / f"{name}.csv" for name in ("HUGE", "LEVEL", "WIDE", "NARROW")}
    files["HUGE"].write_text(
        "t,value\n" + "".join(f"{t},{s * 1e308}\n" for t, s in enumerate(_HUGE_SIGNS)))
    files["LEVEL"].write_text("t,value\n" + "".join(f"{t},1e308\n" for t in range(4)))
    for name, step in (("WIDE", 4e307), ("NARROW", 1e-320)):
        files[name].write_text("t,value\n" + "".join(f"{k * step!r},{k % 2}\n" for k in range(4)))
    argv = [str(files[a]) if a in files else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr
        code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", f"fracspec: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        # the ids are those of the messages before they named the value
        pytest.param(["--ar", "nan"], "AR coefficients must be finite, got nan",
                     id="argv0-AR coefficients must be finite"),
        pytest.param(["--ar", "0.5,inf"], "AR coefficients must be finite, got inf",
                     id="argv1-AR coefficients must be finite"),
        pytest.param(["--ma", "nan"], "MA coefficients must be finite, got nan",
                     id="argv2-MA coefficients must be finite"),
        (["--ar", "1e308,1e308"], "unstable AR polynomial: root magnitude 1e+308 reaches the "
                                  "unit circle"),
    ],
)
def test_bad_arma_coefficients_are_one_line_naming_them(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr
        code, out, err = run_cli(["simulate", "--d", "0.3", "--n", "10"] + argv, capsys)
    assert (code, out, err) == (1, "", f"fracspec: {message}\n")


@pytest.mark.parametrize(
    "max_lag,truncation",
    [(200, 100_000), (1000, 100_000), (1001, 100_100), (9900, 990_000), (9950, 990_050),
     (10_000, 990_000)],
)
def test_acf_default_truncation_stays_within_gl_cap(max_lag, truncation, monkeypatch, capsys):
    # the default is no truncation, so it sums no psi weights at all:
    # theoretical_acf gets None and the header names none; an explicit one
    # is passed through and named
    seen = []

    def fake_acf(d, sigma, max_lag, truncation=None):
        seen.append(truncation)
        return np.zeros(max_lag + 1)

    monkeypatch.setattr(arfima, "theoretical_acf", fake_acf)
    argv = ["acf", "--d", "0.3", "--max-lag", str(max_lag)]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "") and "truncation" not in out
    code, out, err = run_cli(argv + ["--truncation", str(truncation)], capsys)
    assert (code, err) == (0, "") and f"truncation={truncation}\n" in out
    assert seen == [None, truncation]


@pytest.mark.parametrize("d", [-0.49, 0.1, 0.3, 0.45, 0.499])
@pytest.mark.parametrize("max_lag", [0, 1, 5, 20, 100])
def test_acf_default_truncation_passes_the_tail_guard(d, max_lag, capsys):
    # the default is Hosking's closed form, which omits no tail to guard
    code, out, err = run_cli(["acf", "--d", str(d), "--max-lag", str(max_lag)], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"# theoretical, d={d:.12g}, sigma=1"
    want = [float(format(g, ".12g")) for g in arfima.theoretical_acf(d, 1.0, max_lag)]
    assert parse_rows(out)[:, 1].tolist() == want


@pytest.mark.parametrize("flag,value", [("--truncation", "100"), ("--sigma", "1")])
def test_sample_acf_rejects_theoretical_flags(flag, value, tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("t,value\n0,1.0\n1,2.0\n2,0.5\n")
    code, out, err = run_cli(
        ["acf", "--input", str(series), "--max-lag", "1", flag, value], capsys
    )
    assert (code, out) == (1, "")
    assert err == f"fracspec: usage error: {flag} does not apply to --input\n"


@pytest.mark.parametrize("grid", [25, 100, 301])
def test_response_grid_ends_at_pi(grid, capsys):
    # j * (pi / G) rounds above pi at j = G for these G
    code, out, err = run_cli(
        ["response", "--family", "gl", "--order", "0.4", "--truncation", "16",
         "--grid", str(grid)],
        capsys,
    )
    assert (code, err) == (0, "")
    rows = parse_rows(out)
    assert rows.shape == (grid, 6) and rows[-1, 0] == float(format(math.pi, ".12g"))


# Linux counts the RSS of the process that forked a child in the child's
# ru_maxrss, so the CLI is started from a small interpreter, not from pytest
_MAXRSS_OF_CHILD = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_response_at_grid_cap_stays_under_100_mb(tmp_path):
    argv = [sys.executable, "-m", "fracspec", "response", "--family", "gl", "--order", "0.4",
            "--truncation", "2048", "--grid", str(cli.GRID_CAP), "-o", str(tmp_path / "r.csv")]
    proc = subprocess.run([sys.executable, "-c", _MAXRSS_OF_CHILD, *argv],
                          capture_output=True, text=True, timeout=300)
    code, maxrss_kib = map(int, proc.stdout.split())
    assert code == 0
    # measured 65 MB, and 161 MB when responses were summed over a
    # grid-by-lag matrix
    assert maxrss_kib < 100 * 1024


_OVER_CAP = str(exactops.HALF_WIDTH_CAP + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--order", "0.5", "--half-width", _OVER_CAP],
        ["difference", "--family", "exact", "--order", "0.5", "--half-width", _OVER_CAP],
        ["response", "--family", "exact", "--order", "0.5", "--truncation", _OVER_CAP],
    ],
)
def test_exit_code_half_width_over_cap(argv, tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("t,value\n0,1.0\n1,2.0\n2,0.5\n")
    if argv[0] == "difference":
        argv = argv + ["--input", str(series)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    if argv[0] == "response":  # which has no --half-width
        want = f"truncation must be 1..{exactops.HALF_WIDTH_CAP} for --family exact"
    else:
        want = f"half_width exceeds cap {exactops.HALF_WIDTH_CAP}"
    assert err == f"fracspec: {want}\n"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--half-width", "8"], "--half-width"),
        (["--boundary", "periodic"], "--boundary"),
        (["--boundary", "zero"], "--boundary"),
        (["--family", "exact", "--truncation", "8"], "--truncation"),
    ],
    ids=["gl-half-width", "gl-boundary-periodic", "gl-boundary-zero", "exact-truncation"],
)
def test_difference_rejects_flags_its_family_does_not_read(argv, flag, tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("t,value\n0,1.0\n1,2.0\n2,0.5\n")
    family = "exact" if "exact" in argv else "gl"
    code, out, err = run_cli(
        ["difference", "--input", str(series), "--order", "0.5", *argv], capsys
    )
    assert (code, out) == (1, "")
    assert err == f"fracspec: usage error: {flag} does not apply to --family {family}\n"


@pytest.mark.parametrize("family,flag", [("gl", "truncation"), ("exact", "half_width")])
@pytest.mark.parametrize("n", [100, 5000])
def test_difference_defaults_to_the_series_length_up_to_4096(family, flag, n, tmp_path, capsys):
    # the default truncation or half-width is n at every length, recorded in
    # the header, and gives the output of the run that names it
    series = tmp_path / "series.csv"
    assert main(["simulate", "--d", "0.3", "--n", str(n), "--seed", "2", "-o", str(series)]) == 0
    argv = ["difference", "--input", str(series), "--family", family, "--order", "0.4"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert f", {flag}={n}" in out.splitlines()[0]
    explicit = run_cli(argv + [f"--{flag.replace('_', '-')}", str(n)], capsys)
    assert explicit == (0, out, "")


@pytest.mark.parametrize("family", ["gl", "exact"])
def test_default_difference_is_the_untruncated_operator(family, tmp_path, capsys):
    # n = 3000 puts both widths on the FFT path, within its stated
    # 1e-13 * sum|w| * max|y| of the exact sum: the default width n equals the
    # O(n^2) sum over every pair of samples and the library at width 2n
    n, order = 3000, 0.4
    series = tmp_path / "series.csv"
    assert main(["simulate", "--d", "0.3", "--n", str(n), "--seed", "8", "-o", str(series)]) == 0
    code, out, err = run_cli(
        ["difference", "--input", str(series), "--family", family, "--order", str(order)], capsys)
    assert (code, err) == (0, "")
    y, _ = parse_series_csv(series.read_text(), "series.csv")
    if family == "gl":
        default, wide = (glops.gl_difference(y, order, w).values for w in (n, 2 * n))
        weights = glops.gl_coefficients(order, n)
        brute = _brute_causal(y.values, weights)
    else:
        default, wide = (exactops.exact_difference(y, exactops.exact_kernel_window(order, w)).values
                         for w in (n, 2 * n))
        weights = exactops.exact_kernel_window(order, n).weights
        brute = _brute_two_sided(y.values, weights, periodic=False)
    assert np.array_equal(parse_rows(out)[:, 1], [float(f"{v:.12g}") for v in default])
    bound = 1e-13 * np.abs(weights).sum() * np.abs(y.values).max()
    assert np.abs(default - brute).max() <= bound
    assert np.abs(default - wide).max() <= bound


def test_default_difference_recovers_the_noise_of_an_untruncated_simulation(monkeypatch, capsys):
    # simulate integrates over every sample at --truncation n, and the default
    # difference undoes it: the residual is the noise up to the CSV rounding
    # of y (|c_m| sums to at most 2) and of the residual; with the simulation's
    # default truncation 4096 it was off by 0.011 (seed 1)
    n = 5000
    code, sim, err = run_cli(["simulate", "--d", "0.3", "--n", str(n), "--truncation", str(n),
                              "--seed", "1"], capsys)
    assert (code, err) == (0, "")
    monkeypatch.setattr(sys, "stdin", io.StringIO(sim))
    code, out, err = run_cli(["difference", "--order", "0.3"], capsys)
    assert (code, err) == (0, "")
    y, resid = parse_rows(sim)[:, 1], parse_rows(out)[:, 1]
    noise = white_noise(NoiseSpec(seed=1), n).values
    rounding = 5e-12 * (2 * np.abs(y).max() + np.abs(resid).max())
    assert np.abs(resid - noise).max() <= 2 * rounding


@pytest.mark.parametrize("family,flag,module,cap", [
    ("gl", "truncation", glops, "TRUNCATION_CAP"),
    ("exact", "half_width", exactops, "HALF_WIDTH_CAP")], ids=["gl", "exact"])
def test_default_difference_refuses_a_series_above_the_cap(
        family, flag, module, cap, tmp_path, monkeypatch, capsys):
    # the cap is lowered so that a short series is over it; the flag that
    # truncates on purpose still runs
    series = tmp_path / "series.csv"
    assert main(["simulate", "--d", "0.3", "--n", "51", "-o", str(series)]) == 0
    monkeypatch.setattr(module, cap, 50)
    argv = ["difference", "--input", str(series), "--family", family, "--order", "0.4"]
    option, name = "--" + flag.replace("_", "-"), module.__name__.rpartition(".")[2] + "." + cap
    assert run_cli(argv, capsys) == (1, "", (
        f"fracspec: 51 samples exceed {name} = 50 of the untruncated operator; "
        f"{option} truncates it\n"))
    code, out, err = run_cli(argv + [option, "50"], capsys)
    assert (code, err) == (0, "") and f", {flag}=50" in out


def test_default_periodic_difference_is_the_exact_operator(tmp_path, monkeypatch, capsys):
    # without --half-width the periodic boundary applies the (i w)^a
    # multiplier: its header names no half-width, its rows are the library's
    # at 12 digits, and no half-width cap applies, while the default zero
    # boundary, which builds a window of half-width n, still refuses
    series = tmp_path / "series.csv"
    assert main(["simulate", "--d", "0.3", "--n", "51", "--seed", "3", "-o", str(series)]) == 0
    monkeypatch.setattr(exactops, "HALF_WIDTH_CAP", 50)
    argv = ["difference", "--input", str(series), "--family", "exact", "--order", "0.4"]
    code, out, err = run_cli(argv + ["--boundary", "periodic"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "# family=exact, order=0.4, boundary=periodic"
    y, _ = parse_series_csv(series.read_text(), "series.csv")
    want = exactops.exact_difference(y, exactops.exact_operator(0.4), "periodic").values
    assert np.array_equal(parse_rows(out)[:, 1], [float(f"{v:.12g}") for v in want])
    assert run_cli(argv, capsys) == (1, "", (
        "fracspec: 51 samples exceed exactops.HALF_WIDTH_CAP = 50 of the untruncated operator; "
        "--half-width truncates it\n"))


def test_acf_refuses_both_input_and_d(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("t,value\n0,1.0\n1,2.0\n2,0.5\n")
    code, out, err = run_cli(["acf", "--input", str(series), "--d", "0.3", "--max-lag", "1"],
                             capsys)
    assert (code, out) == (1, "")
    assert err == ("fracspec: acf takes either --input (sample ACF) or --d (theoretical), "
                   "not both\n")


def test_simulate_names_a_coefficient_list_it_cannot_read(capsys):
    code, out, err = run_cli(["simulate", "--d", "0.3", "--n", "10", "--ar", "0.5,x"], capsys)
    assert (code, out) == (1, "")
    assert err == "fracspec: usage error: expected comma-separated numbers, got '0.5,x'\n"


def test_kernel_high_order_builds(capsys):
    # |K(0)| = pi^20 / 21 = 4.2e8: an absolute cross-check tolerance rejected it
    code, out, err = run_cli(["kernel", "--order", "20", "--half-width", "4"], capsys)
    assert (code, err) == (0, "")
    assert parse_rows(out)[4, 1] == pytest.approx(math.pi**20 / 21.0, rel=1e-11)  # 12 digits


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,value\n0,1.0\n1,oops\n")
    code, _, err = run_cli(["difference", "--input", str(bad), "--order", "0.5"], capsys)
    assert code == 2
    assert "bad.csv:3:2" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(["spectrum", "--input", "/nonexistent/x.csv"], capsys)
    assert code == 2


def test_exit_code_consistency_error(monkeypatch, capsys):
    def boom(order, half_width):
        raise ConsistencyError("synthetic mismatch")

    monkeypatch.setattr(exactops, "exact_kernel_window", boom)
    code, _, err = run_cli(["kernel", "--order", "0.5", "--half-width", "4"], capsys)
    assert code == 3 and "consistency" in err


@pytest.mark.parametrize(
    "where, error",
    [(("missing", "x.csv"), errno.ENOENT), ((), errno.EISDIR)],
    ids=["missing directory", "directory"],
)
def test_unwritable_output_is_one_line(where, error, tmp_path, capsys):
    path = tmp_path.joinpath(*where)
    code, out, err = run_cli(["kernel", "--order", "0.5", "--half-width", "3", "-o", str(path)],
                             capsys)
    assert (code, out) == (1, "")
    assert err == f"fracspec: cannot write output: {path}: {os.strerror(error)}\n"


def test_main_returns_its_code_without_ending_the_process(monkeypatch, tmp_path, capsys):
    def ended(code):
        raise AssertionError(f"main ended the process with code {code}")

    monkeypatch.setattr(os, "_exit", ended)
    kernel = ["kernel", "--order", "0.5", "--half-width", "3"]
    assert main(kernel) == 0
    assert main(kernel[:3]) == 1
    assert main([*kernel, "-o", str(tmp_path)]) == 1


def test_parse_series_csv_roundtrip():
    text = "# d=0.3, seed=7\nt,value\n0,1.5\n0.5,2.5\n1,3.5\n"
    series, meta = parse_series_csv(text, "<test>")
    assert series.values.tolist() == [1.5, 2.5, 3.5]
    assert series.step == 0.5 and series.start == 0.0
    assert meta["d"] == "0.3" and meta["seed"] == "7"


def test_parse_series_csv_rejects_nonuniform():
    text = "t,value\n0,1.0\n1,2.0\n3,3.0\n"
    with pytest.raises(ValueError):
        parse_series_csv(text, "<test>")


def test_kernel_command_does_not_import_numpy_polynomial(tmp_path):
    # exactops freezes its Gauss-Legendre rule; numpy.polynomial costs a CLI
    # process 3-7 ms of import
    out = str(tmp_path / "k.csv")
    code = ("import sys\nfrom fracspec.cli import main\n"
            f"assert main(['kernel', '--order', '0.5', '--half-width', '64', '-o', {out!r}]) == 0\n"
            "print('numpy.polynomial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.stdout.split() == ["False"], proc.stderr


def test_pipeline_subprocess():
    sim = subprocess.run(
        [sys.executable, "-m", "fracspec", "simulate", "--d", "0.3", "--n", "1024",
         "--seed", "7", "--truncation", "1024"],
        capture_output=True,
        timeout=300,
    )
    assert sim.returncode == 0, sim.stderr.decode()
    est = subprocess.run(
        [sys.executable, "-m", "fracspec", "estimate", "--bandwidth", "32"],
        input=sim.stdout,
        capture_output=True,
        timeout=300,
    )
    assert est.returncode == 0, est.stderr.decode()
    lines = est.stdout.decode().splitlines()
    assert lines[0] == "d_hat,std_err,bandwidth,n,classification"


def test_estimate_row_reads_the_series_length(tmp_path, capsys):
    # the n column is the sample count, not the regression's bandwidth
    sim = tmp_path / "y.csv"
    assert main(["simulate", "--d", "0.2", "--n", "5000", "--seed", "3", "-o", str(sim)]) == 0
    code, out, err = run_cli(["estimate", "--input", str(sim)], capsys)
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["n"] == "5000"
    assert row.split(",")[2] == "70"  # floor(sqrt(5000))


def test_kernel_even_order_at_large_half_width(capsys):
    # K(+-4438) at order 14 is 0.657 in magnitude and the quadrature
    # oracle's own error there is 1.1e-8, above 1e-8 * max(1, |K|)
    code, out, err = run_cli(["kernel", "--order", "14", "--half-width", "4438"], capsys)
    assert (code, err) == (0, "")
    rows = parse_rows(out)
    assert rows[0, 0] == -4438 and rows[-1, 0] == 4438
    assert rows[[0, -1], 1] == pytest.approx(-0.6569791148347915699531, rel=1e-11)


def test_import_stays_numpy_only():
    # scipy costs about a second to import, more than a CLI run's own work
    code = "import sys, fracspec, fracspec.cli; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()


_KERNEL = ["kernel", "--order", "0.5", "--half-width", "3"]
_BIG_KERNEL = ["kernel", "--order", "0.5", "--half-width", "100000"]  # 4.95 MB of CSV
# stdout buffered as users get it, so bytes left unflushed at os._exit would show
_BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.fixture(scope="module")
def ended(tmp_path_factory):
    """(exit code, stdout, stderr) of each exit-path case, each a fresh
    process ended by ``cli.run``, two at a time to save wall time; "dir"
    is the directory the cases read and write."""
    tmp = tmp_path_factory.mktemp("exit_path")
    bad = tmp / "bad.csv"
    bad.write_text("t,value\n0,1.0\n1,oops\n")
    fracspec = [sys.executable, "-m", "fracspec"]
    cases = {
        "success": fracspec + _KERNEL,
        "usage error": fracspec + _KERNEL[:3],
        "parse error": fracspec + ["difference", "--input", str(bad), "--order", "0.5"],
        "output error": fracspec + _KERNEL + ["-o", str(tmp / "missing" / "x.csv")],
        "help": fracspec + ["--help"],
        "profiled": [sys.executable, "-m", "cProfile", "-m", "fracspec", *_KERNEL],
        "big to pipe": fracspec + _BIG_KERNEL,
        "big to file": fracspec + _BIG_KERNEL + ["-o", str(tmp / "k.csv")],
    }

    def run(argv):
        proc = subprocess.run(argv, capture_output=True, env=_BUFFERED, timeout=300)
        return proc.returncode, proc.stdout, proc.stderr.decode()

    with ThreadPoolExecutor(2) as pool:
        results = dict(zip(cases, pool.map(run, cases.values())))
    results["big file"] = (tmp / "k.csv").read_bytes()
    results["dir"] = tmp
    return results


def test_process_success_writes_what_main_writes(ended, capsys):
    assert main(_KERNEL) == 0
    assert ended["success"] == (0, capsys.readouterr().out.encode(), "")


def test_process_large_output_through_a_pipe_is_complete(ended):
    code, out, err = ended["big to pipe"]
    assert (code, err) == (0, "")
    assert ended["big to file"] == (0, b"", "")
    # far more than a pipe buffer holds, so the reader drains it while it is written
    assert len(out) > 4_900_000 and out == ended["big file"]


def test_process_errors_are_one_line_with_their_exit_code(ended):
    assert ended["usage error"] == (
        1, b"", "fracspec: usage error: the following arguments are required: --half-width\n")
    assert ended["parse error"] == (
        2, b"", f"fracspec: parse error: {ended['dir'] / 'bad.csv'}:3:2: not a number: 'oops'\n")
    assert ended["output error"] == (
        1, b"", f"fracspec: cannot write output: {ended['dir'] / 'missing' / 'x.csv'}: "
        f"{os.strerror(errno.ENOENT)}\n")


def test_process_help_exits_zero(ended):
    code, out, err = ended["help"]
    assert (code, err) == (0, "")
    assert out.startswith(b"usage: fracspec")


def test_process_under_a_profiler_exits_normally(ended, capsys):
    # cProfile prints its report at exit, which os._exit would skip
    assert main(_KERNEL) == 0
    code, out, err = ended["profiled"]
    assert (code, err) == (0, "")
    assert out.startswith(capsys.readouterr().out.encode())
    assert b"function calls" in out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_process_stdout_on_a_full_device_is_one_line():
    # the ENOSPC comes from main's flush of the buffered bytes
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "fracspec", *_KERNEL], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=_BUFFERED, timeout=300)
    assert (proc.returncode, proc.stderr) == (
        1, f"fracspec: cannot write output: <stdout>: {os.strerror(errno.ENOSPC)}\n")


def test_script_entry_points_resolve_to_callables():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"fracspec": "fracspec.cli:run"}
    for target in scripts.values():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for name in attr.split("."):
            obj = getattr(obj, name)
        assert callable(obj), target


def test_main_module_only_calls_run():
    path = os.path.join(os.path.dirname(cli.__file__), "__main__.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert ast.dump(tree) == ast.dump(ast.parse("from .cli import run\nrun()\n"))
