"""Byte-for-byte regression of the CLI's CSV output.

Each case runs one command in process and compares its output file with a
golden file under ``tests/data/golden/``.  The golden files were written by
the line-by-line CSV layer that the array-native one replaced, except the
four exact-kernel files (``kernel_half``, ``exact_zero``, ``exact_periodic``,
``response_exact``), rewritten when the window's lags 0-4 moved from the 1F2
series to quadrature, and all but ``kernel_half`` again, in the last printed
digit of a few rows, when quadrature began to form node phases exactly and
the asymptotic sum moved to real arithmetic.  A failure here means a
command's bytes changed.
Inputs are golden files of earlier cases (``y.csv``) or small hand-written
series.
"""

from pathlib import Path

import pytest

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
