"""Command-line front end.

Subcommands: kernel, coeffs, difference, simulate, spectrum, response,
estimate, acf.  Every run writes exactly one CSV artifact (file or stdout),
numbers at 12 significant digits, metadata as '#'-prefixed header lines.
Errors go to stderr as a single line; exit codes: 0 success, 1
usage/validation, 2 input parse, 3 numeric-consistency failure.  A result
that is not finite (finite inputs whose output leaves the double-precision
range) is a validation error, never a CSV cell.  An output that cannot be
written (a missing directory, a directory as the file, a full disk) ends in
'fracspec: cannot write output: TARGET: REASON', exit 1.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import arfima, exactops, glops, spectral
from ._kernels import Series, _finite
from .errors import ConsistencyError, CsvParseError

__all__ = ["main", "run", "GRID_CAP"]

# response grid points; see CHANGES.md for the measurement behind the cap
GRID_CAP = 2**16


def _fmt(x) -> str:
    return format(float(x), ".12g")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


class _UsageError(ValueError):
    pass


def _read_text(path: str | None) -> tuple[str, str]:
    if path is None or path == "-":
        try:
            return sys.stdin.read(), "<stdin>"
        except OSError as exc:
            raise CsvParseError(f"<stdin>: cannot read input: {exc}") from exc
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(), path
    except OSError as exc:
        raise CsvParseError(f"{path}: cannot read input: {exc.strerror}") from exc


def _read_meta(line: str, meta: dict) -> None:
    for part in line.lstrip("#").strip().split(","):
        if "=" in part:
            k, v = part.split("=", 1)
            meta[k.strip()] = v.strip()


def parse_series_csv(text: str, name: str) -> tuple[Series, dict]:
    """Parse a series CSV (header ``t,value``) into a Series plus metadata.

    Leading ``#`` lines fill the metadata.  The data rows are converted in
    one ``np.loadtxt`` call, which accepts a subset of what ``float`` does and
    skips only empty lines; any row it rejects sends the whole body through
    :func:`_parse_rows`, the only source of ``file:line:col`` errors.
    """
    meta = {}
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _read_meta(line, meta)
            continue
        if line.replace(" ", "") != "t,value":
            raise CsvParseError(f"{name}:{lineno}:1: expected header 't,value'")
        break
    else:
        raise CsvParseError(f"{name}:1:1: missing header 't,value'")
    rows = lines[lineno:]
    table = None
    if any(rows):  # loadtxt warns on a body of empty lines
        try:
            table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        except ValueError:
            pass
    if table is None or table.shape[1] != 2:
        table = _parse_rows(rows, lineno + 1, name, meta)
    return _series_from_columns(table[:, 0], table[:, 1]), meta


def _parse_rows(rows: list[str], first_lineno: int, name: str, meta: dict) -> np.ndarray:
    """Line-by-line parse of the data rows into an (n, 2) table; ``#`` lines
    among them add to ``meta``."""
    table = []
    for lineno, raw in enumerate(rows, start=first_lineno):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _read_meta(line, meta)
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise CsvParseError(f"{name}:{lineno}:1: expected 2 fields, got {len(fields)}")
        row = []
        for col, field in enumerate(fields, start=1):
            try:
                row.append(float(field))
            except ValueError:
                raise CsvParseError(
                    f"{name}:{lineno}:{col}: not a number: {field.strip()!r}"
                ) from None
        table.append(row)
    if not table:
        raise CsvParseError(f"{name}:1:1: no data rows")
    return np.array(table, dtype=np.float64)


def _series_from_columns(t: np.ndarray, values: np.ndarray) -> Series:
    """The Series of a parsed table, once its time column is checked to be
    finite, increasing and uniformly spaced."""
    step = 1.0
    uniform = bool(np.isfinite(t).all())
    if uniform and t.size > 1:
        # finite times can differ by more than the largest float; the
        # comparison is written so that an inf or NaN difference fails it
        with np.errstate(over="ignore", invalid="ignore"):
            steps = np.diff(t)
            step = float(steps[0])
            uniform = step > 0 and np.abs(steps - step).max() <= 1e-9 * max(abs(step), 1.0)
    if not uniform:
        raise ValueError("series time column must be uniformly spaced and increasing")
    return Series(values, step=step, start=float(t[0]))


def _csv(header: list[str], *columns: np.ndarray) -> str:
    """Header lines, then one row per index of ``columns``.

    Integer columns are written with ``%d`` and float columns with
    ``%.12g``, which is ``format(float(x), ".12g")``; one ``%`` applied to
    the interleaved cells formats every row.  Raises ValueError if any cell
    is not finite.
    """
    _finite(*columns)
    n = columns[0].size
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.12g" for c in columns) + "\n"
    cells = [None] * (n * len(columns))
    for j, c in enumerate(columns):
        cells[j :: len(columns)] = c.tolist()
    return "\n".join(header) + "\n" + (row * n) % tuple(cells)


def _time_column(times: np.ndarray) -> np.ndarray:
    """The times as integers where ``%d`` writes the bytes ``%.12g`` would:
    integral, below 1e12 in magnitude (12 digits) and no -0.0."""
    if (
        np.all(np.abs(times) < 1e12)
        and np.array_equal(times, np.trunc(times))
        and not np.signbit(times[times == 0]).any()
    ):
        return times.astype(np.int64)
    return times


def _series_csv(series: Series, meta_lines: list[str]) -> str:
    header = [f"# {m}" for m in meta_lines] + ["t,value"]
    return _csv(header, _time_column(series.times), series.values)


def _cmd_kernel(args) -> str:
    window = exactops.exact_kernel_window(args.order, args.half_width)
    header = [f"# order={_fmt(args.order)}, half_width={args.half_width}", "m,weight"]
    return _csv(header, window.lags, window.weights)


def _cmd_coeffs(args) -> str:
    c = glops.gl_coefficients(args.order, args.truncation)
    header = [f"# order={_fmt(args.order)}, truncation={args.truncation}", "m,coefficient"]
    return _csv(header, np.arange(c.size), c)


# the difference flags each family does not read
_FOREIGN_FLAGS = {"gl": ("half_width", "boundary"), "exact": ("truncation",)}


def _cmd_difference(args) -> str:
    for flag in _FOREIGN_FLAGS[args.family]:
        if getattr(args, flag) is not None:
            raise _UsageError(
                f"--{flag.replace('_', '-')} does not apply to --family {args.family}"
            )
    text, name = _read_text(args.input)
    series, _ = parse_series_csv(text, name)
    if args.family == "gl":
        truncation = args.truncation
        if truncation is None:
            truncation = min(len(series), 4096)
        out = glops.gl_difference(series, args.order, truncation)
        meta = [f"family=gl, order={_fmt(args.order)}, truncation={truncation}"]
    else:
        half_width = args.half_width
        if half_width is None:
            half_width = min(len(series), 4096)
        boundary = args.boundary or "zero"
        window = exactops.exact_kernel_window(args.order, half_width)
        out = exactops.exact_difference(series, window, boundary=boundary)
        meta = [
            f"family=exact, order={_fmt(args.order)}, half_width={half_width}, "
            f"boundary={boundary}"
        ]
    return _series_csv(out, meta)


def _cmd_simulate(args) -> str:
    ar = _parse_coeff_list(args.ar)
    ma = _parse_coeff_list(args.ma)
    spec = arfima.ArfimaSpec(
        d=args.d, n=args.n, ar=ar, ma=ma, burn_in=args.burn_in, truncation=args.truncation
    )
    noise = arfima.NoiseSpec(sigma=args.sigma, seed=args.seed)
    series = arfima.simulate_arfima(spec, noise)
    meta = [
        f"d={_fmt(args.d)}, p={len(ar)}, q={len(ma)}, sigma={_fmt(args.sigma)}, "
        f"seed={args.seed}, truncation={spec.truncation}",
        f"burn_in={args.burn_in}, stationary={'true' if spec.classical_stationary else 'false'}",
    ]
    return _series_csv(series, meta)


def _cmd_spectrum(args) -> str:
    text, name = _read_text(args.input)
    series, _ = parse_series_csv(text, name)
    omega, power = spectral.periodogram(series)
    header = [
        "# periodogram, normalization S = |dft|^2 / n_fft",
        f"# n={len(series)}, n_fft={spectral._fft_size(len(series))}, "
        f"step={_fmt(series.step)}",
        "omega,S",
    ]
    return _csv(header, omega, power)


def _cmd_response(args) -> str:
    if args.grid < 1:
        raise _UsageError(f"--grid must be at least 1, got {args.grid}")
    if args.grid > GRID_CAP:
        raise ValueError(f"grid exceeds cap {GRID_CAP}")
    if args.family == "exact" and not 1 <= args.truncation <= exactops.HALF_WIDTH_CAP:
        # the window's own message would name half_width, a flag response lacks
        raise ValueError(f"truncation must be 1..{exactops.HALF_WIDTH_CAP} for --family exact")
    # j * (pi / G) rounds above pi at j = G for some G (25, 100, 301, ...)
    grid = np.minimum(np.arange(1, args.grid + 1) * (math.pi / args.grid), math.pi)
    report = spectral.response_report(args.order, args.family, args.truncation, grid)
    header = [
        f"# family={args.family}, order={_fmt(args.order)}, truncation={args.truncation}, "
        f"grid={args.grid}",
        "omega_T,measured_re,measured_im,target_re,target_im,rel_error",
    ]
    measured, target = report.measured, report.target
    return _csv(
        header, report.omega_T, measured.real, measured.imag, target.real, target.imag,
        report.rel_error,
    )


def _cmd_estimate(args) -> str:
    text, name = _read_text(args.input)
    series, _ = parse_series_csv(text, name)
    estimate = arfima.estimate_memory(series, args.bandwidth)
    lines = [
        "d_hat,std_err,bandwidth,n,classification",
        f"{_fmt(estimate.d_hat)},{_fmt(estimate.std_err)},{estimate.bandwidth},"
        f"{len(series)},{estimate.classification}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_acf(args) -> str:
    if args.input is not None and args.d is not None:
        raise ValueError("acf takes either --input (sample ACF) or --d (theoretical), not both")
    if args.d is not None:
        truncation = args.truncation
        if truncation is None:
            # theoretical_acf sums truncation + max_lag psi weights; from
            # 1e5 the sum passed its tail guard at every d tried in
            # [-0.49, 0.499] (see CHANGES.md)
            truncation = min(
                max(100 * args.max_lag, 100_000), glops.TRUNCATION_CAP - args.max_lag
            )
        sigma = 1.0 if args.sigma is None else args.sigma
        gammas = arfima.theoretical_acf(args.d, sigma, args.max_lag, truncation)
        meta = f"# theoretical, d={_fmt(args.d)}, sigma={_fmt(sigma)}, truncation={truncation}"
    else:
        for flag in ("truncation", "sigma"):
            if getattr(args, flag) is not None:
                raise _UsageError(f"--{flag} does not apply to --input")
        text, name = _read_text(args.input)
        series, _ = parse_series_csv(text, name)
        gammas = spectral.sample_autocovariance(series, args.max_lag)
        meta = f"# sample, n={len(series)}"
    return _csv([meta, "k,acov"], np.arange(gammas.size), gammas)


def _parse_coeff_list(text: str | None) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise _UsageError(f"expected comma-separated numbers, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("kernel", help="dump an exact-difference kernel window")
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--half-width", type=int, required=True)
    add_output(p)
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("coeffs", help="dump Grunwald-Letnikov coefficients")
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--truncation", type=int, required=True)
    add_output(p)
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("difference", help="fractionally difference a series CSV")
    p.add_argument("--input", default=None, help="series CSV (default stdin)")
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--family", choices=("gl", "exact"), default="gl")
    p.add_argument("--truncation", type=int, default=None,
                   help="GL lag cap (default min(n, 4096)); gl family only")
    p.add_argument("--half-width", type=int, default=None,
                   help="exact-kernel half width (default min(n, 4096)); exact family only")
    p.add_argument("--boundary", choices=("zero", "periodic"), default=None,
                   help="exact family only (default zero)")
    add_output(p)
    p.set_defaults(handler=_cmd_difference)

    p = sub.add_parser("simulate", help="simulate an ARFIMA(p, d, q) series")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ar", default=None, help="comma-separated AR coefficients")
    p.add_argument("--ma", default=None, help="comma-separated MA coefficients")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--truncation", type=int, default=None,
                   help="GL lag cap of the integration (default min(n + burn_in, 4096))")
    add_output(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("spectrum", help="periodogram of a series CSV")
    p.add_argument("--input", default=None)
    add_output(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("response", help="frequency-response verification report")
    p.add_argument("--family", choices=("gl", "exact"), required=True)
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--truncation", type=int, required=True,
                   help="GL lag cap or exact-kernel half width")
    p.add_argument("--grid", type=int, default=256, help="number of omega*T points on (0, pi]")
    add_output(p)
    p.set_defaults(handler=_cmd_response)

    p = sub.add_parser("estimate", help="log-periodogram memory estimate")
    p.add_argument("--input", default=None)
    p.add_argument("--bandwidth", type=int, default=None, help="default floor(sqrt(n))")
    add_output(p)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("acf", help="sample or theoretical autocovariance")
    p.add_argument("--input", default=None, help="series CSV for the sample ACF")
    p.add_argument("--d", type=float, default=None, help="theoretical ARFIMA(0,d,0) ACF")
    p.add_argument("--sigma", type=float, default=None, help="default 1; --d only")
    p.add_argument("--max-lag", type=int, required=True)
    p.add_argument("--truncation", type=int, default=None,
                   help="psi-weight truncation J (default max(100 * max_lag, 100000), at "
                   "most the GL truncation cap minus max_lag); the sum falls short of "
                   "the ACF by about sigma^2 J^(2d-1) / ((1-2d) Gamma(d)^2), 22%% of "
                   "gamma(0) at d = 0.45 and J = 1e5, and its tail guard rejects only "
                   "very short truncations; --d only")
    add_output(p)
    p.set_defaults(handler=_cmd_acf)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # non-finite intermediates surface as one error line, not as warnings
        with np.errstate(all="ignore"):
            text = args.handler(args)
    except _UsageError as exc:
        print(f"fracspec: usage error: {exc}", file=sys.stderr)
        return 1
    except CsvParseError as exc:
        print(f"fracspec: parse error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"fracspec: consistency error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:
        print(f"fracspec: {exc}", file=sys.stderr)
        return 1
    to_stdout = args.output is None or args.output == "-"
    try:
        if to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        target = "<stdout>" if to_stdout else args.output
        print(f"fracspec: cannot write output: {target}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


def _hooked() -> bool:
    """Whether a tracer or profiler is installed; from Python 3.12 cProfile
    and coverage may register with ``sys.monitoring`` instead."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6)  # tool ids 0..5
    )


def run() -> None:
    """Process entry point: run :func:`main` on ``sys.argv`` and end the
    process with its exit code.

    By then the output file is closed, stdout is flushed and no thread of
    the program runs, so the process ends in ``os._exit`` and skips the
    interpreter's teardown of its modules, about 20 ms of every process.
    Under a tracer or profiler it exits normally, so their at-exit reports
    are written.  A ``SystemExit`` (``--help``) or an uncaught exception
    leaves through the normal exit as well.
    """
    code = main()
    if _hooked():
        sys.exit(code)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
