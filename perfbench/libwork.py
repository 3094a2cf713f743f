"""lib_batch: one op is one in-process library call chain on a fresh series,
run as a closed loop by a single client.

The chain (white noise, GL difference, exact difference with both
boundaries, memory estimate) reuses one cached exact-kernel window, so the
window build is paid once per process and every op after that is a cache
hit.  Each op's outputs are checked, untimed, against the references in
``oracles``; a sample of ops is rerun at the end and must reproduce its
outputs byte for byte.

Times are corrected for host speed (see ``hostspeed``): every op and
every set-up is bracketed by one execution of the reference kernel.
"""

import hashlib
import math
import resource
import statistics
import time

import numpy as np

import hostspeed
import oracles

SIZES = {
    "full": {"n": 4096, "gl_truncation": 256, "half_width": 256},
    "tiny": {"n": 512, "gl_truncation": 32, "half_width": 32},
}
GL_ORDER = 0.4
EXACT_ORDER = 0.5
RERUNS = 16


def _drop_window_cache(exactops) -> None:
    """Empty fracspec's exact-kernel window cache so the next op builds cold,
    as the first op of a fresh process does."""
    cache = getattr(exactops, "_window_cache", None)
    if cache is not None:
        cache.clear()
    clear = getattr(exactops.exact_kernel_window, "cache_clear", None)
    if clear is not None:
        clear()


def _op_seed(seed: int, i: int) -> int:
    return (seed * 1_000_003 + i) % 2**64


def _chain(f, p, seed):
    """One op: the library call chain on the series generated from ``seed``."""
    y = f.white_noise(f.NoiseSpec(seed=seed), p["n"])
    gl = f.gl_difference(y, GL_ORDER, p["gl_truncation"])
    window = f.exact_kernel_window(EXACT_ORDER, p["half_width"])
    zero = f.exact_difference(y, window, "zero")
    periodic = f.exact_difference(y, window, "periodic")
    estimate = f.estimate_memory(y)
    return y.values, gl.values, zero.values, periodic.values, estimate.d_hat


def _digest(outputs) -> str:
    h = hashlib.sha256()
    for a in outputs[:4]:
        h.update(a.tobytes())
    h.update(np.float64(outputs[4]).tobytes())
    return h.hexdigest()


class _Checker:
    """Per-op output checks against references built once per run."""

    def __init__(self, p):
        self.gl = oracles.gl_coefficients(GL_ORDER, p["gl_truncation"])
        self.window = oracles.exact_kernel_weights(EXACT_ORDER, p["half_width"])
        self.bandwidth = math.isqrt(p["n"])
        self.worst = {"oracle.gl_difference_max_rel_err": 0.0,
                      "oracle.exact_difference_max_rel_err": 0.0,
                      "oracle.estimate_max_abs_err": 0.0}

    def check(self, outputs) -> str | None:
        y, gl, zero, periodic, d_hat = outputs
        if not (np.isfinite(y).all() and np.isfinite(gl).all() and np.isfinite(zero).all()
                and np.isfinite(periodic).all() and math.isfinite(d_hat)):
            return "non-finite output"
        gl_err = np.abs(gl - oracles.causal_reference(y, self.gl)).max()
        gl_err /= oracles.convolution_scale(y, self.gl)
        scale = oracles.convolution_scale(y, self.window)
        exact_err = max(
            np.abs(zero - oracles.two_sided_zero_reference(y, self.window)).max(),
            np.abs(periodic - oracles.two_sided_periodic_reference(y, self.window)).max(),
        ) / scale
        est_err = abs(d_hat - oracles.log_periodogram_d(y, self.bandwidth))
        for key, value in zip(self.worst, (gl_err, exact_err, est_err)):
            self.worst[key] = max(self.worst[key], float(value))
        if not gl_err <= oracles.CONV_REL_TOL:
            return f"GL difference error {gl_err:.3e} of scale"
        if not exact_err <= oracles.CONV_REL_TOL:
            return f"exact difference error {exact_err:.3e} of scale"
        if not est_err <= oracles.ESTIMATE_TOL:
            return f"estimate differs from reference by {est_err:.3e}"
        return None


def _loop(seconds, op, checker, seed, first_index, perturb, digests, failures, tracer=None):
    """Closed loop of timed ops, each followed by its untimed check.

    Returns (corrected op times, raw op times).  Records each op's output
    digest, and the reason each failed op failed, keyed by the op's seed."""
    times, raw = [], []
    start = time.perf_counter()
    ref_before = hostspeed.reference()
    i = first_index
    while not times or time.perf_counter() - start < seconds:
        op_seed = _op_seed(seed, i)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        outputs = op(op_seed)
        elapsed = time.perf_counter() - t0
        ref_after = hostspeed.reference()
        raw.append(elapsed)
        times.append(hostspeed.corrected(elapsed, ref_before, ref_after))
        ref_before = ref_after
        if perturb and i == 0:
            outputs = (outputs[0], outputs[1] + 1e-3, *outputs[2:])
        digests[op_seed] = _digest(outputs)
        problem = checker.check(outputs)
        if problem:
            failures[op_seed] = problem
        i += 1
    return times, raw


def run(ctx):
    """Measure lib_batch; returns the dict ``run.py`` reports from."""
    from fracspec import exactops

    p = SIZES[ctx.scale]

    def op(seed):
        return _chain(ctx.fracspec, p, seed)

    # set-up: a fresh process's first op, with the window cache empty
    setup_times, raw_setup = [], []
    for rep in range(ctx.setup_reps):
        ref_before = hostspeed.reference()
        start = time.perf_counter()
        _drop_window_cache(exactops)
        op(_op_seed(ctx.seed, -1 - rep))
        elapsed = time.perf_counter() - start
        raw_setup.append(elapsed)
        setup_times.append(hostspeed.corrected(elapsed, ref_before, hostspeed.reference()))

    checker = _Checker(p)
    digests, failures = {}, {}
    # a traced run also spends about a third of its time on the scaling series
    phase = ctx.seconds / 3 if ctx.trace else ctx.seconds
    times, raw = _loop(phase, op, checker, ctx.seed, 0, ctx.perturb, digests, failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced_times, traced_raw, traces = [], [], []
    if ctx.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        # the traced phase starts cold too, so the tracer sees the one build
        _drop_window_cache(exactops)
        traced_times, traced_raw = _loop(phase, op, checker, ctx.seed, len(times), False,
                                         digests, failures, tracer)
        traces = [tracer.to_json()]

    for op_seed in list(digests)[:RERUNS]:
        if _digest(op(op_seed)) != digests[op_seed]:
            failures.setdefault(op_seed, "rerun output not byte-identical")
    attempted = len(times) + len(traced_times)
    return {
        "setup_times": setup_times,
        "op_times": times,
        "traced_op_times": traced_times,
        "samples_per_op": 5 * p["n"],
        "raw": {"setup_wall_s": statistics.median(raw_setup),
                "op_p50_wall_s": statistics.median(raw),
                "traced_op_p50_wall_s": statistics.median(traced_raw) if traced_raw else None},
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": sorted(set(failures.values())),
        "oracle": dict(checker.worst),
        "traces": traces,
        "bytes_written": 0,
    }
