"""Byte-for-byte regression of the CLI's CSV output.

Each case runs one command in process and compares its output file with a
golden file under ``tests/data/golden/``.  The golden files were written by
the line-by-line CSV layer that the array-native one replaced, except the
four exact-kernel files (``kernel_half``, ``exact_zero``, ``exact_periodic``,
``response_exact``), rewritten when the window's lags 0-4 moved from the 1F2
series to quadrature, and all but ``kernel_half`` again, in the last printed
digit of a few rows, when quadrature began to form node phases exactly and
the asymptotic sum moved to real arithmetic.  Row t = 317 of
``exact_periodic`` moved from 3.8826599841e-05 to 3.88265998409e-05 when
every periodic difference became one length-n circular product: the exact
sum of the double products there is 3.882659984098834e-05, so the row sits
on a 12-digit rounding tie that either route's last bit decides, and
``test_exact_differences_are_within_their_bound_of_exact_sums`` checks both
exact-difference files against exact sums.  A failure here means a
command's bytes changed.
Inputs are golden files of earlier cases (``y.csv``) or small hand-written
series.
"""

import math
from fractions import Fraction
from pathlib import Path

import pytest

from fracspec import exact_kernel_window
from fracspec.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

# (output file, argv); "{y}", "{halfstep}" and "{bigtime}" name input files
CASES = [
    ("kernel.csv", ["kernel", "--order", "1", "--half-width", "3"]),
    ("kernel_half.csv", ["kernel", "--order", "0.5", "--half-width", "32"]),
    ("coeffs.csv", ["coeffs", "--order", "0.5", "--truncation", "16"]),
    ("y.csv", ["simulate", "--d", "0.3", "--n", "512", "--seed", "1"]),
    ("arma.csv", ["simulate", "--d", "0.3", "--n", "256", "--ar", "0.5,-0.3", "--ma", "0.4",
                  "--seed", "2", "--burn-in", "16"]),
    ("estimate.csv", ["estimate", "--input", "{y}", "--bandwidth", "16"]),
    ("resid.csv", ["difference", "--input", "{y}", "--order", "0.3", "--truncation", "512"]),
    ("exact_zero.csv", ["difference", "--input", "{y}", "--order", "0.5", "--family", "exact",
                        "--half-width", "64"]),
    ("exact_periodic.csv", ["difference", "--input", "{y}", "--order", "0.5", "--family",
                            "exact", "--half-width", "64", "--boundary", "periodic"]),
    ("spectrum.csv", ["spectrum", "--input", "{y}"]),
    ("acf_sample.csv", ["acf", "--input", "{y}", "--max-lag", "64"]),
    ("acf_theoretical.csv", ["acf", "--d", "0.3", "--max-lag", "200", "--truncation", "100000"]),
    ("response_gl.csv", ["response", "--family", "gl", "--order", "0.4", "--truncation", "2048",
                         "--grid", "256"]),
    ("response_exact.csv", ["response", "--family", "exact", "--order", "0.5",
                            "--truncation", "1024", "--grid", "256"]),
    # non-integral times, and integral times at 1e12 where 12 digits round
    ("halfstep_out.csv", ["difference", "--input", "{halfstep}", "--order", "0.5",
                          "--truncation", "8"]),
    ("bigtime_out.csv", ["difference", "--input", "{bigtime}", "--order", "1",
                         "--truncation", "2"]),
]

INPUTS = {"y": "y.csv", "halfstep": "halfstep_in.csv", "bigtime": "bigtime_in.csv"}


def run_case(argv, out_path) -> int:
    argv = [a.format(**{k: str(GOLDEN / v) for k, v in INPUTS.items()}) for a in argv]
    return main(argv + ["-o", str(out_path)])


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, tmp_path):
    out = tmp_path / name
    assert run_case(argv, out) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def _values(name):
    """The value column of a golden CSV file, parsed as the CLI parses it."""
    lines = (GOLDEN / name).read_text().splitlines()
    rows = [line for line in lines if not line.startswith("#")][1:]
    return [float(row.split(",")[1]) for row in rows]


def _exact_sums(y, w, periodic):
    """sum_m w[m + half] y[t - m] for each t as an exact Fraction of the
    double inputs: each double is an integer over a power of two, so the sums
    are formed in integers over one common denominator."""
    def integers(xs):
        ratios = [x.as_integer_ratio() for x in xs]
        scale = max(d for _, d in ratios)
        return [p * (scale // d) for p, d in ratios], scale

    (yi, y_scale), (wi, w_scale) = integers(y), integers(w)
    n, half = len(y), (len(w) - 1) // 2
    sums = []
    for t in range(n):
        lags = [(k, t - (k - half)) for k in range(len(w))]
        if periodic:
            total = sum(wi[k] * yi[i % n] for k, i in lags)
        else:
            total = sum(wi[k] * yi[i] for k, i in lags if 0 <= i < n)
        sums.append(Fraction(total, y_scale * w_scale))
    return sums


@pytest.mark.parametrize("name,periodic", [("exact_zero.csv", False),
                                           ("exact_periodic.csv", True)])
def test_exact_differences_are_within_their_bound_of_exact_sums(name, periodic):
    # both files difference y.csv at order 0.5, half-width 64; each row is
    # within the convolution bound 1e-13 * sum|w| * max|y| of the exact sum,
    # plus half a unit in the 12th significant digit the CSV prints
    y = _values("y.csv")
    w = [float(x) for x in exact_kernel_window(0.5, 64).weights]
    scale = 1e-13 * math.fsum(abs(x) for x in w) * max(abs(x) for x in y)
    got = _values(name)
    assert len(got) == len(y)
    for t, (value, exact) in enumerate(zip(got, _exact_sums(y, w, periodic))):
        rounding = 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11) if value else 0.0
        assert abs(Fraction(value) - exact) <= scale + rounding, t
