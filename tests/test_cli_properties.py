"""Generated command lines for ``kernel``, ``coeffs``, ``response``,
``acf --d`` and ``simulate``, and generated CSV text for ``difference``,
``spectrum``, ``estimate`` and ``acf --input``: every run ends in exit 0
with a finite CSV, or in exit 1 or 3 with exactly one ``fracspec:`` line on
stderr, never in a traceback or a numpy warning.  Malformed CSV text (a bad
header, an extra column) ends in exit 2 with one ``parse error`` line, and
times that are not uniform in the one message that says so.  Sizes stay
below a few thousand so each run is quick; the caps are tried one past
their bound."""

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
def _series_csv(draw, lengths=_LENGTHS):
    """CSV text of a series: noise, a constant or alternating signs, at a
    scale from denormal to near the double-precision limit, on integral or
    half-step times."""
    n = draw(lengths)
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


# what a damaged series CSV must end in: exit code and stderr prefix
_PARSE_ERROR = (2, "fracspec: parse error: ")
_NOT_UNIFORM = (1, "fracspec: series time column must be uniformly spaced and increasing\n")
_BAD_HEADERS = ["time,value", "t,val", "t;value", "value,t", "t,value,extra", "0,1.0", ""]


@st.composite
def _damaged_csv(draw):
    """Series CSV text of n from 1 up, with one kind of damage or none:
    blank or whitespace-only lines, ``#`` lines among the rows, a bad header,
    an extra column or times that are not uniform.  Returns the text and the
    (exit code, stderr prefix) it must end in, None where any outcome of the
    contract may follow."""
    text, n = draw(_series_csv(st.one_of(st.integers(1, 40), _LENGTHS)))
    lines = text.splitlines()
    damage = draw(st.sampled_from(["none", "blank", "comment", "header", "column", "times"]))
    want = None
    if damage in ("blank", "comment"):
        filler = ["", " ", "\t", "  \t "] if damage == "blank" else ["# note", "#a=b, c", " # x"]
        for _ in range(draw(st.integers(1, 4))):
            # anywhere, before the header too
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(filler)))
    elif damage == "header":
        lines[0] = draw(st.sampled_from(_BAD_HEADERS))
        want = _PARSE_ERROR
    elif damage == "column":
        row = draw(st.integers(1, n))
        lines[row] += draw(st.sampled_from([",0", ",", ",1,2"]))
        want = _PARSE_ERROR
    elif damage == "times" and n > 1:
        # a time repeated, out of order or, where a third time fixes the
        # step, one quarter step off
        row = draw(st.integers(2, n))
        t, value = lines[row].split(",")
        previous = float(lines[row - 1].split(",")[0])
        step = float(lines[2].split(",")[0]) - float(lines[1].split(",")[0])
        shifted = [float(t) + step / 4] if n > 2 else []
        t = draw(st.sampled_from([previous, previous - step, *shifted]))
        lines[row] = f"{t!r},{value}"
        want = _NOT_UNIFORM
    return "\n".join(lines) + "\n", want


_csv_reader = st.one_of(
    st.just(["spectrum"]),
    _optional("--bandwidth", _int(-1, 100, 2, 3, 4)).map(lambda a: ["estimate", *a]),
    _int(-1, 50, 0, 1).map(lambda k: ["acf", "--input=-", f"--max-lag={k}"]),
)

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


def _assert_contract(argv, stdin="", want=None):
    code, out, err = _run(argv, stdin)
    if want is not None:
        assert code == want[0] and out == "", (code, err)
        assert err.startswith(want[1]) and err.count("\n") == 1 and err.endswith("\n"), err
    elif code == 0:
        assert err == ""
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        header, rows = lines[0].split(","), [row.split(",") for row in lines[1:]]
        assert rows and all(len(row) == len(header) for row in rows)
        # estimate's row ends in a word
        if header[-1] == "classification":
            assert all(row.pop() in ("long", "short", "none") for row in rows)
        table = np.array([[float(cell) for cell in row] for row in rows])
        assert np.isfinite(table).all()
    else:
        assert code in (1, 3), (code, err)
        assert out == ""
        assert err.startswith("fracspec: ") and err.count("\n") == 1 and err.endswith("\n")
    return err


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
    err = _assert_contract(argv)
    # no message blames a flag the run did not pass
    assert "half_width" not in err or any(a.startswith("--half-width") for a in argv), err


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


@settings(max_examples=120, deadline=None)
@given(_csv_reader, _damaged_csv())
def test_csv_readers_end_in_csv_or_one_error_line(argv, case):
    text, want = case
    err = _assert_contract(argv, text, want)
    # no message blames a flag the run did not pass, nor the fit inside estimate
    assert "bandwidth must" not in err or any(a.startswith("--bandwidth") for a in argv), err
    assert "log-log fit" not in err, err
