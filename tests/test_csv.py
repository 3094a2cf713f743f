"""The CLI's CSV layer: the one-call parse against its line-by-line
fallback, the row writer against per-value ``format``, the time-column
check, the non-finite value contract and the size caps."""

import tracemalloc
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracspec import arfima, cli, glops
from fracspec.cli import main, parse_series_csv
from fracspec.errors import CsvParseError
from fracspec.glops import Series

UNIFORM = "series time column must be uniformly spaced and increasing"


@contextmanager
def line_loop():
    """Force every body through the line-by-line fallback."""
    with mock.patch.object(cli.np, "loadtxt", side_effect=ValueError("forced")):
        yield


@contextmanager
def fast_only():
    """Fail if the body does not take the one-call path."""
    with mock.patch.object(cli, "_parse_rows", side_effect=AssertionError("fell back")):
        yield


def outcome(text, force_loop):
    """Bits of the values, step, start and meta, or the exception raised;
    a warning (loadtxt's on an empty body) fails the test."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if force_loop:
                with line_loop():
                    series, meta = parse_series_csv(text, "<t>")
            else:
                series, meta = parse_series_csv(text, "<t>")
    except ValueError as exc:
        return type(exc), str(exc)
    return series.values.tobytes(), series.step, series.start, meta


PATHS = pytest.mark.parametrize("force_loop", [False, True], ids=["fast", "loop"])


# --- parse: fast path against the loop ------------------------------------

_good = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: format(x, ".12g")),
    st.integers(-10**6, 10**6).map(str),
)
# float() accepts the first row, loadtxt only some of it, neither the second
_odd = st.sampled_from([
    "nan", "-inf", "1e500", "-0", ".5", "5.", "+nan", " 1.5", "2.5 ", "\t3", "\xa04",
    "1_0", "1e1_0", "\u0661\u0662", "\uff11", "\u20031",
    "0x10", "1d5", "", " ", "oops", "1 2", "nan(1)",
])


@st.composite
def _number(draw):
    return draw(_odd if draw(st.integers(0, 5)) == 0 else _good)


@st.composite
def csv_texts(draw):
    lines = draw(st.lists(st.sampled_from(["# d=0.3, seed=7", "#", "", "  ", "# k = v"]),
                          max_size=3))
    if draw(st.integers(0, 19)):
        headers = ["t,value"] * 6 + [" t , value ", "t, value", "t;value", "time,value"]
        lines.append(draw(st.sampled_from(headers)))
    start = draw(st.sampled_from([0.0, 1.0, -3.0, 0.25, 1e12]))
    step = draw(st.sampled_from([1.0, 0.5, 0.1, 2.0]))
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 29))
        if kind < 2:  # blank, whitespace-only or comment line among the data
            lines.append(draw(st.sampled_from(["", "   ", "# mid=1", "#x=2,y=3"])))
        elif kind == 2:  # one to three fields
            lines.append(",".join(draw(st.lists(_number(), min_size=1, max_size=3))))
        elif kind == 3:  # an arbitrary time
            lines.append(f"{draw(_number())},{draw(_number())}")
        else:
            lines.append(f"{format(start + step * i, '.12g')},{draw(_number())}")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


@settings(max_examples=400, deadline=None)
@given(csv_texts())
@example("t,value\n")
@example("t,value\n\n\n")
@example("# only=meta\n")
@example("t,value\n0,1\n# mid=2\n1,2\n")
@example("t,value\n0,1_0\n1,2\n")
@example("t,value\n0,1\n1\n")
@example("t,value\n0,1,2\n1,2,3\n")
@example("t,value\n  \n0,1\n")
def test_fast_parse_equals_line_loop(text):
    assert outcome(text, False) == outcome(text, True)


def test_clean_body_takes_fast_path():
    # loadtxt skips empty lines, as the loop does
    text = "# d=0.3\nt,value\n0,1.5\n1,-2.5e-3\n\n2, 7 \n"
    with fast_only():
        series, meta = parse_series_csv(text, "<t>")
    assert series.values.tolist() == [1.5, -2.5e-3, 7.0] and meta == {"d": "0.3"}


@pytest.mark.parametrize(
    "body,message",
    [
        ("0,1.0\n1,oops\n", "<t>:3:2: not a number: 'oops'"),
        ("0,1.0\n1\n", "<t>:3:1: expected 2 fields, got 1"),
        ("0,1.0\n# c\n\n1,2,3\n", "<t>:5:1: expected 2 fields, got 3"),
        ("x,1.0\n", "<t>:2:1: not a number: 'x'"),
        ("", "<t>:1:1: no data rows"),
        ("\n  \n# only\n", "<t>:1:1: no data rows"),
    ],
)
def test_parse_errors_carry_file_line_col(body, message):
    with pytest.raises(CsvParseError) as info:
        parse_series_csv("t,value\n" + body, "<t>")
    assert str(info.value) == message


def test_header_errors():
    with pytest.raises(CsvParseError, match=r"^<t>:2:1: expected header 't,value'$"):
        parse_series_csv("# m=1\nt,v\n0,1\n", "<t>")
    with pytest.raises(CsvParseError, match=r"^<t>:1:1: missing header 't,value'$"):
        parse_series_csv("# m=1\n\n", "<t>")


# --- parse: time column and non-finite values -----------------------------


@PATHS
@pytest.mark.parametrize(
    "times",
    [["nan", "1", "2", "3"], ["0", "nan", "2", "3"], ["0", "1", "2", "nan"],
     ["0", "1", "inf", "3"], ["-inf", "1", "2", "3"], ["nan"], ["inf"],
     ["-1e308", "1e308"]],
)
def test_non_finite_time_is_rejected(times, force_loop):
    text = "t,value\n" + "".join(f"{t},{i}\n" for i, t in enumerate(times))
    assert outcome(text, force_loop) == (ValueError, UNIFORM)


@PATHS
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_value_is_a_validation_error(value, force_loop):
    text = f"t,value\n0,1\n1,{value}\n2,3\n"
    assert outcome(text, force_loop) == (ValueError, "series values must all be finite")


def test_non_finite_cells_exit_1_on_cli(tmp_path, capsys):
    for name, body, err in [
        ("time.csv", "0,1\n1,2\n2,3\nnan,4\n", UNIFORM),
        ("value.csv", "0,1\n1,nan\n", "series values must all be finite"),
    ]:
        path = tmp_path / name
        path.write_text("t,value\n" + body)
        code = main(["difference", "--input", str(path), "--order", "0.5"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"fracspec: {err}\n")


# --- writer ---------------------------------------------------------------


def oracle_csv(header, *columns):
    rows = []
    for cells in zip(*columns):
        rows.append(",".join(str(int(c)) if isinstance(c, (int, np.integer))
                             else format(float(c), ".12g") for c in cells))
    return "".join(line + "\n" for line in header + rows)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
             1.7976931348623157e308, 1e12, 1e12 + 1, 999999999999.0, 0.1, 1 / 3]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_finite, st.sampled_from(_specials)), max_size=40),
       st.integers(0, 3))
def test_writer_matches_format_oracle(values, n_int):
    v = np.array(values, dtype=np.float64)
    ints = [np.arange(-v.size, v.size, 2, dtype=np.int64)] * n_int
    columns = [*ints, v, -v]
    assert cli._csv(["# h", "a,b"], *columns) == oracle_csv(["# h", "a,b"], *columns)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_finite, st.sampled_from([0.0, -0.0, -5.0, 1e12, -1e12, 1e12 - 3,
                                        999999999990.0, 2.0**53, 1e300, 0.25])),
    st.one_of(st.floats(1e-300, 1e300), st.sampled_from([1.0, 0.5, 0.1, 3.0, 1e12])),
    st.integers(1, 20),
)
def test_series_writer_matches_format_oracle(start, step, n):
    try:
        series = Series(np.linspace(-1.0, 1.0, n), step=step, start=start)
    except ValueError:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        times = series.times
    if not np.isfinite(times).all():
        return
    want = "# m\nt,value\n" + "".join(
        f"{format(float(t), '.12g')},{format(float(x), '.12g')}\n"
        for t, x in zip(times, series.values)
    )
    assert cli._series_csv(series, ["m"]) == want


def test_integral_times_use_integers_only_below_1e12():
    assert cli._time_column(np.array([0.0, 1.0, 999999999999.0])).dtype == np.int64
    for times in ([0.0, 1e12], [0.5, 1.5], [-0.0, 1.0]):
        assert cli._time_column(np.array(times)).dtype == np.float64


# --- size caps ------------------------------------------------------------


def _over(cap):
    return str(cap + 1)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--d", "0.3", "--n", _over(arfima.SAMPLE_CAP)],
         f"n + burn_in exceeds cap {arfima.SAMPLE_CAP}"),
        (["simulate", "--d", "0.3", "--n", str(10**12)],
         f"n + burn_in exceeds cap {arfima.SAMPLE_CAP}"),
        (["simulate", "--d", "0.3", "--n", "10", "--burn-in", str(arfima.SAMPLE_CAP)],
         f"n + burn_in exceeds cap {arfima.SAMPLE_CAP}"),
        (["response", "--family", "gl", "--order", "0.4", "--truncation", "16",
          "--grid", _over(cli.GRID_CAP)], f"grid exceeds cap {cli.GRID_CAP}"),
        (["response", "--family", "exact", "--order", "0.5", "--truncation", "16",
          "--grid", str(10**12)], f"grid exceeds cap {cli.GRID_CAP}"),
        (["acf", "--d", "0.3", "--max-lag", _over(arfima.MAX_LAG_CAP)],
         f"max_lag exceeds cap {arfima.MAX_LAG_CAP}"),
        (["acf", "--d", "0.3", "--max-lag", str(10**12), "--truncation", str(10**13)],
         f"max_lag exceeds cap {arfima.MAX_LAG_CAP}"),
        (["simulate", "--d", "0", "--n", "5", "--truncation", _over(glops.TRUNCATION_CAP)],
         f"truncation exceeds cap {glops.TRUNCATION_CAP}"),
    ],
)
def test_size_caps_fail_before_work(argv, message, capsys):
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"fracspec: {message}\n")
    assert peak < 2**20  # nothing sized by the request was allocated


def test_sample_cap_is_inclusive():
    spec = arfima.ArfimaSpec(d=0.3, n=arfima.SAMPLE_CAP - 5, burn_in=5)
    assert spec.n + spec.burn_in == arfima.SAMPLE_CAP
