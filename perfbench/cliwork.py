"""CLI workloads: one op is one pass of a README command sequence, each
command a fresh ``python -m fracspec`` process, run as a closed loop by a
single client.

Every op of a run uses the same generated argv and input files, so every op
after the first is a rerun whose outputs must be byte-identical to the
first op's.  The first op's outputs are checked against the references in
``oracles``; an op fails on a nonzero exit, a failed check of its outputs
or outputs that differ from the first op's.

Each process's wall time is corrected for host speed (see ``hostspeed``)
with reference executions between processes, and an op's time is the sum
over its processes.  Sizes keep every process near or below a second, the
span over which the correction tracks contention.
"""

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import hostspeed
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Step:
    argv: tuple  # fracspec arguments
    output: str  # file the command writes (-o), in the op directory
    samples: int  # series samples the command's operator processes


SIZES = {
    "cli_arfima": {"full": {"n": 50_000}, "tiny": {"n": 2000}},
    # The exact response keeps half-width 1024 at both sizes: criterion 6's
    # 1e-2 bound is stated for that half-width.
    "cli_exact": {
        "full": {"n": 8192, "half_width": 1024, "grid": 256, "gl_truncation": 2048},
        "tiny": {"n": 512, "half_width": 64, "grid": 32, "gl_truncation": 256},
    },
}

D_ARFIMA = 0.3
D_BAND_STDERRS = 5.0  # d_hat must lie within 5 standard errors of d
ACF_MAX_LAG = 200
ACF_SLOPE_TOL = 0.05  # criterion 8
EXACT_RESPONSE_TOL = 1e-2  # criterion 6


def arfima_steps(p, seeds):
    n = p["n"]
    return [
        Step(("simulate", "--d", str(D_ARFIMA), "--n", str(n), "--truncation", str(n),
              "--seed", str(seeds[0]), "-o", "y.csv"), "y.csv", n),
        Step(("difference", "--input", "y.csv", "--order", str(D_ARFIMA),
              "--truncation", str(n), "-o", "resid.csv"), "resid.csv", n),
        Step(("simulate", "--d", str(D_ARFIMA), "--n", str(n), "--ar", "0.5,-0.3",
              "--ma", "0.4", "--seed", str(seeds[1]), "-o", "arma.csv"), "arma.csv", n),
        Step(("estimate", "--input", "y.csv", "-o", "est_y.csv"), "est_y.csv", n),
        Step(("estimate", "--input", "arma.csv", "-o", "est_arma.csv"), "est_arma.csv", n),
    ]


def exact_steps(p, seeds):
    n = p["n"]
    return [
        Step(("difference", "--input", "x.csv", "--order", "0.5", "--family", "exact",
              "--half-width", str(p["half_width"]), "-o", "exact_zero.csv"), "exact_zero.csv", n),
        Step(("difference", "--input", "x.csv", "--order", "0.5", "--family", "exact",
              "--half-width", str(p["half_width"]), "--boundary", "periodic",
              "-o", "exact_periodic.csv"), "exact_periodic.csv", n),
        Step(("response", "--family", "exact", "--order", "0.5", "--truncation", "1024",
              "--grid", str(p["grid"]), "-o", "resp_exact.csv"), "resp_exact.csv", p["grid"]),
        Step(("response", "--family", "gl", "--order", "0.4", "--truncation",
              str(p["gl_truncation"]), "--grid", str(p["grid"]), "-o", "resp_gl.csv"),
             "resp_gl.csv", p["grid"]),
        Step(("acf", "--d", str(D_ARFIMA), "--max-lag", str(ACF_MAX_LAG), "--truncation", "100000",
              "-o", "acf.csv"), "acf.csv", ACF_MAX_LAG + 1),
    ]


def _write_series(path, values) -> None:
    lines = ["t,value"] + [f"{t},{format(float(v), '.12g')}" for t, v in enumerate(values)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _inputs(name, p, seed, directory) -> tuple:
    """Write the workload's input files; return the seeds its argv carries."""
    rng = np.random.default_rng(seed)
    seeds = tuple(int(s) for s in rng.integers(0, 2**63, size=2))
    if name == "cli_exact":
        _write_series(os.path.join(directory, "x.csv"), rng.standard_normal(p["n"]))
    return seeds


STEPS = {"cli_arfima": arfima_steps, "cli_exact": exact_steps}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _finite(*arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def _read_d_hat(path) -> float:
    """d_hat from an ``estimate`` CSV (header line, then one data row)."""
    with open(path, encoding="utf-8") as fh:
        return float(fh.read().splitlines()[1].split(",")[0])


def check_arfima(d, p, seeds, fracspec):
    """Failures and raw errors of the cli_arfima outputs in directory d."""
    path = lambda f: os.path.join(d, f)  # noqa: E731
    n = p["n"]
    y = oracles.read_series_csv(path("y.csv"))
    resid = oracles.read_series_csv(path("resid.csv"))
    arma = oracles.read_series_csv(path("arma.csv"))
    failures = []
    if not _finite(y, resid, arma) or not (y.size == resid.size == arma.size == n):
        return ["non-finite or short series output"], {}
    # (1 - L)^d undoes the simulation's (1 - L)^-d at matching truncation, so
    # the residual is the driving noise up to the CSV rounding of y (|c_m|
    # sums to at most 2) and of the residual itself; twice that allows for
    # arithmetic error.
    noise = fracspec.white_noise(fracspec.NoiseSpec(seed=seeds[0]), n).values
    noise_err = float(np.abs(resid - noise).max())
    noise_tol = 2 * oracles.CSV_REL_ROUNDING * (2 * np.abs(y).max() + np.abs(resid).max())
    if not noise_err <= noise_tol:
        failures.append(f"noise recovery error {noise_err:.3e} > {noise_tol:.3e}")

    # ARMA path: MA(1) filter, fractional integration at the CLI's default
    # truncation min(n, 4096), AR(2) recursion.
    e = fracspec.white_noise(fracspec.NoiseSpec(seed=seeds[1]), n).values
    x = e.copy()
    x[1:] += 0.4 * e[:-1]
    x = oracles.causal_reference(x, oracles.gl_coefficients(-D_ARFIMA, min(n, 4096)))
    ref = np.empty(n)
    prev1 = prev2 = 0.0
    for t in range(n):
        prev1, prev2 = x[t] + 0.5 * prev1 - 0.3 * prev2, prev1
        ref[t] = prev1
    arma_err = float(np.abs(arma - ref).max())
    arma_tol = oracles.CONV_REL_TOL * np.abs(ref).max()
    if not arma_err <= arma_tol:
        failures.append(f"ARMA simulation error {arma_err:.3e} > {arma_tol:.3e}")

    bandwidth = math.isqrt(n)
    d_hats = [_read_d_hat(path(f)) for f in ("est_y.csv", "est_arma.csv")]
    refs = [oracles.log_periodogram_d(s, bandwidth) for s in (y, arma)]
    estimate_err = max(abs(a - b) for a, b in zip(d_hats, refs))
    if not estimate_err <= oracles.ESTIMATE_TOL:
        failures.append(f"estimate differs from reference by {estimate_err:.3e}")
    d_err = abs(d_hats[0] - D_ARFIMA)
    band = D_BAND_STDERRS * oracles.log_periodogram_stderr(bandwidth)
    if not d_err <= band:
        failures.append(f"d_hat {d_hats[0]:.4f} outside {D_ARFIMA} +/- {band:.3f}")
    return failures, {
        "oracle.noise_recovery_max_abs_err": noise_err,
        "oracle.arma_max_abs_err": arma_err,
        "oracle.estimate_max_abs_err": estimate_err,
        "oracle.d_hat_abs_err": d_err,
    }


def check_exact(d, p, seeds, fracspec):
    """Failures and raw errors of the cli_exact outputs in directory d."""
    path = lambda f: os.path.join(d, f)  # noqa: E731
    x = oracles.read_series_csv(path("x.csv"))
    zero = oracles.read_series_csv(path("exact_zero.csv"))
    periodic = oracles.read_series_csv(path("exact_periodic.csv"))
    resp_exact = oracles.read_csv_columns(path("resp_exact.csv"))
    resp_gl = oracles.read_csv_columns(path("resp_gl.csv"))
    acf = oracles.read_csv_columns(path("acf.csv"))
    if not _finite(zero, periodic, resp_exact, resp_gl, acf) or zero.size != x.size:
        return ["non-finite or short output"], {}
    failures = []

    w = oracles.exact_kernel_weights(0.5, p["half_width"])
    conv_err = max(
        np.abs(zero - oracles.two_sided_zero_reference(x, w)).max(),
        np.abs(periodic - oracles.two_sided_periodic_reference(x, w)).max(),
    ) / oracles.convolution_scale(x, w)
    if not conv_err <= oracles.CONV_REL_TOL:
        failures.append(
            f"exact difference error {conv_err:.3e} of scale > {oracles.CONV_REL_TOL:g}")

    omega = resp_exact[:, 0]
    band = (omega >= 0.2 * math.pi) & (omega <= 0.8 * math.pi)
    measured = resp_exact[band, 1] + 1j * resp_exact[band, 2]
    target = (1j * omega[band]) ** 0.5
    response_err = float((np.abs(measured - target) / np.abs(target)).max())
    if not response_err <= EXACT_RESPONSE_TOL:
        failures.append(f"exact response error {response_err:.3e} > {EXACT_RESPONSE_TOL:g}")

    # criterion 7a's quantity; its 1e-6 tolerance is unreachable at 2048
    # lags, so it is reported and not gated
    gl_measured = resp_gl[:, 1] + 1j * resp_gl[:, 2]
    gl_err = float(np.abs(gl_measured - (1 - np.exp(-1j * resp_gl[:, 0])) ** 0.4).max())

    lags = np.arange(20, ACF_MAX_LAG + 1)
    slope_err = abs(oracles.loglog_slope(lags, acf[20:, 1]) - (2 * D_ARFIMA - 1))
    if not slope_err <= ACF_SLOPE_TOL:
        failures.append(f"ACF slope off 2d-1 by {slope_err:.4f}")
    psi = oracles.gl_coefficients(-D_ARFIMA, 100_000 + ACF_MAX_LAG)
    acf_ref = np.correlate(psi, psi[:100_001], "valid")
    acf_err = float(np.abs(acf[:, 1] - acf_ref).max() / acf_ref[0])
    if not acf_err <= oracles.CONV_REL_TOL:
        failures.append(f"ACF error {acf_err:.3e} of gamma(0)")
    return failures, {
        "oracle.exact_difference_max_rel_err": float(conv_err),
        "oracle.exact_response_max_rel_err": response_err,
        "oracle.gl_response_max_abs_err": gl_err,
        "oracle.acf_slope_err": slope_err,
        "oracle.acf_max_rel_err": acf_err,
    }


CHECKS = {"cli_arfima": check_arfima, "cli_exact": check_exact}
PERTURBED = {"cli_arfima": "resid.csv", "cli_exact": "exact_zero.csv"}


def _perturb(path) -> None:
    """Shift the last value of a series CSV by 1e-3 (self-test of the gate)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    t, v = lines[-1].split(",")
    lines[-1] = f"{t},{format(float(v) + 1e-3, '.12g')}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def _run_child(cmd, cwd, env, timeout_s):
    """Run one process to completion; return (exit code, peak RSS in KiB,
    stderr text).  The rusage comes from os.wait4 on that child alone."""
    with open(os.path.join(cwd, "stderr.txt"), "w+b") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        done = threading.Event()

        def kill():
            if not done.is_set():
                proc.kill()

        timer = threading.Timer(max(timeout_s, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, usage.ru_maxrss, err.read().decode(errors="replace")


@dataclass
class Op:
    seconds: float  # corrected for host speed
    wall_s: float
    rss_kib: int
    error: str | None
    digest: str
    bytes_written: int
    traces: list


def _run_op(steps, opdir, env, deadline, traced) -> Op:
    rss = 0
    seconds = wall = 0.0
    error = None
    traces = []
    ref_before = hostspeed.sample()
    for i, step in enumerate(steps):
        if traced:
            spans = os.path.join(opdir, f"spans{i}.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans, *step.argv]
        else:
            cmd = [sys.executable, "-m", "fracspec", *step.argv]
        start = time.perf_counter()
        code, kib, stderr = _run_child(cmd, opdir, env, deadline - time.monotonic())
        elapsed = time.perf_counter() - start
        ref_after = hostspeed.sample()
        seconds += hostspeed.corrected(elapsed, ref_before, ref_after)
        wall += elapsed
        ref_before = ref_after
        rss = max(rss, kib)
        if code != 0:
            error = f"{step.argv[0]} exited {code}: {stderr.strip()[-300:]}"
            break
        if traced:
            with open(spans, encoding="utf-8") as fh:
                traces.append(json.load(fh))
    return Op(seconds, wall, rss, error, *_digest(steps, opdir), traces)


def _digest(steps, opdir) -> tuple:
    """(sha256 over the op's output files, total bytes written)."""
    digest = hashlib.sha256()
    written = 0
    for step in steps:
        out = os.path.join(opdir, step.output)
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
            written += len(data)
            digest.update(step.output.encode() + b"\0" + data)
    return digest.hexdigest(), written


def _loop(seconds, run_op) -> list:
    """Closed loop: start ops one after another until ``seconds`` have passed."""
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(run_op())
    return ops


def run(ctx, name):
    """Measure one CLI workload; returns the dict ``run.py`` reports from."""
    p = SIZES[name][ctx.scale]
    opdir = os.path.join(ctx.workdir, "op")
    warmdir = os.path.join(ctx.workdir, "warm")
    firstdir = os.path.join(ctx.workdir, "first")
    for d in (opdir, warmdir):
        os.makedirs(d)
    deadline = ctx.deadline

    # set-up: inputs from the seed, plus one untimed tiny pass of the same
    # commands (compiles bytecode and loads every module once)
    tiny = SIZES[name]["tiny"]
    setup_times, raw_setup = [], []
    for _ in range(ctx.setup_reps):
        ref_before = hostspeed.sample()
        start = time.perf_counter()
        seeds = _inputs(name, p, ctx.seed, opdir)
        warm_seeds = _inputs(name, tiny, ctx.seed, warmdir)
        inputs_s = time.perf_counter() - start
        warm = _run_op(STEPS[name](tiny, warm_seeds), warmdir, ctx.env, deadline, traced=False)
        raw_setup.append(inputs_s + warm.wall_s)
        setup_times.append(hostspeed.corrected(inputs_s, ref_before, ref_before) + warm.seconds)
        if warm.error:
            raise RuntimeError(f"warm-up failed: {warm.error}")
    steps = STEPS[name](p, seeds)

    def run_op(traced):
        op = _run_op(steps, opdir, ctx.env, deadline, traced)
        if not os.path.exists(firstdir):
            if ctx.perturb and op.error is None:
                _perturb(os.path.join(opdir, PERTURBED[name]))
                op = Op(op.seconds, op.wall_s, op.rss_kib, op.error, *_digest(steps, opdir),
                        op.traces)
            shutil.copytree(opdir, firstdir)
        return op

    # a traced run also spends about a third of its time on the scaling series
    phase = ctx.seconds / 3 if ctx.trace else ctx.seconds
    ops = _loop(phase, lambda: run_op(False))
    traced_ops = _loop(phase, lambda: run_op(True)) if ctx.trace else []

    failures, oracle = [], {}
    if ops[0].error is None:
        failures, oracle = CHECKS[name](firstdir, p, seeds, ctx.fracspec)
    failed = 0
    for op in ops + traced_ops:
        if op.error or failures or op.digest != ops[0].digest:
            failed += 1
    reasons = [op.error for op in ops + traced_ops if op.error] + failures
    if any(op.digest != ops[0].digest for op in ops + traced_ops):
        reasons.append("rerun output not byte-identical")
    return {
        "setup_times": setup_times,
        "op_times": [op.seconds for op in ops],
        "traced_op_times": [op.seconds for op in traced_ops],
        "samples_per_op": sum(s.samples for s in steps),
        "raw": {"setup_wall_s": statistics.median(raw_setup),
                "op_p50_wall_s": statistics.median(op.wall_s for op in ops),
                "traced_op_p50_wall_s": statistics.median(op.wall_s for op in traced_ops)
                if traced_ops else None},
        "peak_rss_mb": max(op.rss_kib for op in ops) / 1024.0,
        "attempted": len(ops) + len(traced_ops),
        "failed": failed,
        "failures": reasons,
        "oracle": oracle,
        "traces": [t for op in traced_ops for t in op.traces],
        "bytes_written": ops[0].bytes_written,
    }

