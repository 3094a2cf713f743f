"""fracspec benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.

Workloads (why each was chosen is recorded in BENCHMARK.json):

- ``cli_arfima``: one op is the README's ARFIMA workflow at n = 5e4 as five
  ``python -m fracspec`` processes (simulate, difference, simulate with
  AR/MA, estimate twice).  Loads the O(n*M) causal convolution and the CSV
  loops; never builds an exact-kernel window.
- ``cli_exact``: one op is five processes that each build an exact-kernel
  window cold at half-width 1024 (difference with both boundaries, response
  for both families, theoretical ACF).  Loads the exact-kernel window build.
- ``lib_batch``: one op is an in-process library call chain on a fresh
  n = 4096 series with a warm window cache.  No import, no CSV.

Each workload is one client in a closed loop.  ``--seed`` generates every
input; ``--seconds`` is the measuring time.  With ``--trace 0`` the run
reports the end-to-end metrics.  With ``--trace 1`` it measures a third
of the time untraced and a third traced, then times a fresh ``import
fracspec`` and the scaling series (``scaling.py``), and reports the
per-layer metrics.

End-to-end times (setup_s, op_p50_s, op_tail_s and the time behind
samples_per_s) are wall times corrected for host speed (``hostspeed``);
the uncorrected medians are in the info record.  Span times in the traced
run are uncorrected wall times.

Metric names and units come from BENCHMARK.json.  The last stdout line is
the result JSON (correct, attempted, failed, metrics); the line before it
is an ``info`` record with the machine and environment, sample counts, the
tail percentiles, every oracle error and the reasons for any failed op.
``--scale tiny`` and ``--perturb`` serve ``selftest.py``.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_LIMIT_S = 170  # every child is killed by then

# A fresh process sets up once; these repeat set-up and report its median.
SETUP_REPS = {"cli_arfima": 5, "cli_exact": 5, "lib_batch": 11}
IMPORT_PROBE_REPS = 7


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(fracspec) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "fracspec_backend": getattr(fracspec, "BACKEND", None),
        "blas_threads": BLAS_THREADS,
    }


def tail(times) -> dict:
    """The gated tail, p90, and the highest percentile with at least 10
    samples above it (the maximum when there are 10 samples or fewer).

    On a shared host the percentiles above ~p90 of millisecond ops are set
    by contention bursts and vary several-fold between runs, so p90 is the
    tail the bound applies to; the higher one is recorded alongside."""
    s = sorted(times)
    n = len(s)
    p90 = statistics.quantiles(s, n=10, method="inclusive")[-1] if n > 1 else s[0]
    if n > 10:
        highest = {"value": s[n - 11], "percentile": 100.0 * (n - 10) / n, "samples_beyond": 10}
    else:
        highest = {"value": s[-1], "percentile": 100.0, "samples_beyond": 0}
    return {"value": p90, "percentile": 90, "samples_beyond": sum(t > p90 for t in s),
            "highest_with_10_beyond": highest}


def import_probe(ctx) -> float:
    """Median fresh ``import fracspec`` minus median ``python -c pass``."""
    bare, full = [], []
    for _ in range(IMPORT_PROBE_REPS):
        for code, out in (("pass", bare), ("import fracspec", full)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=ctx.env, cwd=ctx.workdir,
                           check=True, timeout=60)
            out.append(time.perf_counter() - start)
    return statistics.median(full) - statistics.median(bare)


def scaling_series(ctx) -> dict:
    done = subprocess.run([sys.executable, os.path.join(HERE, "scaling.py"), ctx.scale],
                          env=ctx.env, cwd=ctx.workdir, check=True, capture_output=True,
                          timeout=max(ctx.deadline - time.monotonic(), 1.0))
    return json.loads(done.stdout)


def end_to_end(result) -> tuple:
    times = result["op_times"]
    op_tail = tail(times)
    values = {
        "setup_s": statistics.median(result["setup_times"]),
        "op_p50_s": statistics.median(times),
        "op_tail_s": op_tail["value"],
        "samples_per_s": result["samples_per_op"] * len(times) / sum(times),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {
        "setup_s": len(result["setup_times"]),
        "op_p50_s": len(times),
        "op_tail_s": len(times),
        "samples_per_s": len(times),
        "peak_rss_mb": len(times),
    }
    return values, samples, op_tail


def per_layer(ctx, result, names) -> tuple:
    import tracer

    traced = result["traced_op_times"]
    values = tracer.layer_metrics(result["traces"], len(traced))
    values["cli.bytes_written"] = result["bytes_written"]
    values["import.fracspec_s"] = import_probe(ctx)
    values.update(scaling_series(ctx))
    values["trace.op_p50_s"] = statistics.median(traced)
    untraced = statistics.median(result["op_times"])
    values["trace.overhead_frac"] = values["trace.op_p50_s"] / untraced - 1
    for name in names:
        if name.startswith("oracle."):
            values[name] = result["oracle"].get(name, 0.0)
    samples = {name: len(traced) for name in names}
    samples["import.fracspec_s"] = IMPORT_PROBE_REPS
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_arfima", "cli_exact", "lib_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt the first op's output, to show the correctness gate fails it")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fracspec", "__init__.py")):
        print(f"perfbench: fracspec sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, SRC)
    import fracspec

    import cliwork
    import libwork

    workroot = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(workroot, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    ctx = SimpleNamespace(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), scale=args.scale,
        perturb=args.perturb, workdir=workdir, env=env, fracspec=fracspec,
        setup_reps=SETUP_REPS[args.workload], deadline=time.monotonic() + RUN_LIMIT_S,
    )
    try:
        if args.workload == "lib_batch":
            result = libwork.run(ctx)
        else:
            result = cliwork.run(ctx, args.workload)
        e2e, samples, op_tail = end_to_end(result)
        if ctx.trace:
            values, samples = per_layer(ctx, result, units)
        else:
            values = e2e
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(workroot)  # only when no other run is using it

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "environment": environment(fracspec),
        "samples": samples, "op_tail": op_tail, "samples_per_op": result["samples_per_op"],
        "failed_frac": result["failed"] / result["attempted"],
        "failures": result["failures"], "oracle": result["oracle"],
    }
    info["uncorrected"] = result["raw"]
    if ctx.trace:
        info["end_to_end_untraced_phase"] = e2e
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
