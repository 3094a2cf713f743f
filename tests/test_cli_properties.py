"""Generated command lines for ``kernel``, ``coeffs``, ``response``,
``acf --d`` and ``simulate``, and generated CSV text for ``difference``:
every run ends in exit 0 with a finite CSV, or in exit 1 or 3 with exactly
one ``fracspec:`` line on stderr, never in a traceback or a numpy warning.
Sizes stay below a few thousand so each run is quick; the caps are tried
one past their bound."""

import contextlib
import io
import sys
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import arfima, cli, exactops, glops


def _float(lo, hi, *specials):
    """A float flag value as the shell would spell it."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(specials)).map(repr)


def _int(lo, hi, *specials):
    return st.one_of(st.integers(lo, hi), st.sampled_from(specials)).map(str)


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


_NON_FINITE = (float("nan"), float("inf"), float("-inf"))

_kernel = st.tuples(
    _float(-2.0, 45.0, *_NON_FINITE, -1.0, 14.0, 16.0, 40.0, 1e300),
    _int(-2, 5000, 0, 4096, 4438, exactops.HALF_WIDTH_CAP + 1),
).map(lambda a: ["kernel", f"--order={a[0]}", f"--half-width={a[1]}"])

_coeffs = st.tuples(
    _float(-60.0, 60.0, *_NON_FINITE, 1100.0, 1e300, -1e300),
    _int(-2, 5000, 0, glops.TRUNCATION_CAP + 1),
).map(lambda a: ["coeffs", f"--order={a[0]}", f"--truncation={a[1]}"])

_response = st.tuples(
    st.sampled_from(["gl", "exact"]),
    _float(-2.0, 45.0, *_NON_FINITE, 1100.0, 1e300),
    _int(-2, 3000, 0, glops.TRUNCATION_CAP + 1),
    _int(-2, 300, 0, cli.GRID_CAP + 1),
).map(lambda a: ["response", f"--family={a[0]}", f"--order={a[1]}", f"--truncation={a[2]}",
                 f"--grid={a[3]}"])

_acf = st.tuples(
    _float(-0.7, 0.7, *_NON_FINITE, -0.5, 0.5, 0.499),
    _int(-2, 300, 0, arfima.MAX_LAG_CAP + 1),
    _optional("--truncation", _int(-2, 20000, 0, glops.TRUNCATION_CAP + 1)),
    _optional("--sigma", _float(1e-3, 1e3, *_NON_FINITE, 0.0, -1.0, 1e-200, 1e200)),
).map(lambda a: ["acf", f"--d={a[0]}", f"--max-lag={a[1]}", *a[2], *a[3]])


# series lengths: primes and other lengths that are not 5-smooth among them
_LENGTHS = st.one_of(st.integers(1, 3000), st.sampled_from([1, 2, 3, 7, 97, 1009, 2048, 2999,
                                                            3000]))


@st.composite
def _series_csv(draw):
    """CSV text of a series: noise, a constant or alternating signs, at a
    scale from denormal to near the double-precision limit, on integral or
    half-step times."""
    n = draw(_LENGTHS)
    kind = draw(st.sampled_from(["noise", "constant", "signs"]))
    scale = draw(st.sampled_from([1.0, 1e-300, 5e-324, 1e300, 1e308, -1e308, 0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    values = {"noise": rng.normal(size=n), "constant": np.ones(n),
              "signs": np.resize([1.0, -1.0], n)}[kind]
    with np.errstate(over="ignore"):  # noise times 1e308 overflows
        values = np.clip(values * scale, -1.7e308, 1.7e308).tolist()
    step = draw(st.sampled_from([1.0, 0.5]))
    return "t,value\n" + "".join(f"{i * step!r},{v!r}\n" for i, v in enumerate(values)), n


@st.composite
def _difference(draw):
    text, n = draw(_series_csv())
    family = draw(st.sampled_from(["gl", "exact"]))
    # truncations and half-widths from 1 to beyond the series length
    width = draw(st.one_of(st.integers(1, n + 20), st.sampled_from([1, n, 2 * n + 1])))
    argv = ["difference", f"--order={draw(_float(-2.0, 5.0, *_NON_FINITE, 0.0, 3.0))}",
            f"--family={family}"]
    if family == "gl":
        argv.append(f"--truncation={width}")
    else:
        argv += [f"--half-width={width}",
                 f"--boundary={draw(st.sampled_from(['zero', 'periodic']))}"]
    return argv, text


_coefficients = st.lists(
    _float(-2.0, 2.0, *_NON_FINITE, 0.0, 0.999, -0.999, 1e308, -1e308), max_size=3,
).map(",".join)

_simulate = st.tuples(
    _float(-0.999, 0.999, *_NON_FINITE, -1.0, 1.0, 0.0, 0.5, -0.5),
    _int(-1, 2000, 0, 1, arfima.SAMPLE_CAP + 1),
    _optional("--ar", _coefficients),
    _optional("--ma", _coefficients),
    _optional("--burn-in", _int(-1, 1000, 0, arfima.SAMPLE_CAP)),
    _optional("--sigma", _float(1e-3, 1e3, *_NON_FINITE, 0.0, -1.0, 5e-324, 1e-300, 1e300,
                                1e308)),
    _optional("--seed", _int(0, 2**32, -1, 2**64 - 1, 2**64)),
).map(lambda a: ["simulate", f"--d={a[0]}", f"--n={a[1]}", *a[2], *a[3], *a[4], *a[5], *a[6]])


def _run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    real_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would reach stderr
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
    finally:
        sys.stdin = real_stdin
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv, stdin=""):
    code, out, err = _run(argv, stdin)
    if code == 0:
        assert err == ""
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert rows
        table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        assert table.shape[1] == header.count(",") + 1
        assert np.isfinite(table).all()
    else:
        assert code in (1, 3), (code, err)
        assert out == ""
        assert err.startswith("fracspec: ") and err.count("\n") == 1 and err.endswith("\n")


@settings(max_examples=40, deadline=None)
@given(_kernel)
def test_kernel_ends_in_csv_or_one_error_line(argv):
    _assert_contract(argv)


@settings(max_examples=40, deadline=None)
@given(_coeffs)
def test_coeffs_ends_in_csv_or_one_error_line(argv):
    _assert_contract(argv)


@settings(max_examples=40, deadline=None)
@given(_response)
def test_response_ends_in_csv_or_one_error_line(argv):
    _assert_contract(argv)


@settings(max_examples=40, deadline=None)
@given(_acf)
def test_theoretical_acf_ends_in_csv_or_one_error_line(argv):
    _assert_contract(argv)


@settings(max_examples=60, deadline=None)
@given(_difference())
def test_difference_of_csv_ends_in_csv_or_one_error_line(case):
    argv, text = case
    _assert_contract(argv, text)


@settings(max_examples=60, deadline=None)
@given(_simulate)
def test_simulate_ends_in_csv_or_one_error_line(argv):
    _assert_contract(argv)
