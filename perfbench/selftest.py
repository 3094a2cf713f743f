"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload, untraced and traced, checks that the run exits 0, that
its last line names exactly the metrics BENCHMARK.json lists with the same
units, that the info line gives a sample count for each, and that no op
failed.  Then checks that a deliberately perturbed output fails ops, and
that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's files.
Exits nonzero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def _run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload, trace, extra=()):
    done = _run(["--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny", *extra])
    if done.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            info, result = _result(workload, trace)
            label = f"{workload} trace={trace}"
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], label
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            diff = sorted(set(got.items()) ^ set(expected[trace].items()))
            assert not diff, f"{label}: metrics differ {diff}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{label}: {name} not a number"
                assert info["samples"].get(name, 0) >= 1, f"{label}: no sample count for {name}"
            assert result["correct"] and result["failed"] == 0, f"{label}: {info['failures']}"
            assert result["attempted"] >= 1 and info["failed_frac"] == 0.0, label
            print(f"ok   {label}: {len(got)} metrics, {result['attempted']} ops, none failed")

        info, result = _result(workload, 0, ["--perturb"])
        assert result["failed"] >= 1 and not result["correct"], f"{workload}: perturbation passed"
        print(f"ok   {workload} perturbed: failed_frac {info['failed_frac']:.3f}"
              f" ({info['failures'][0]})")

    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(bench["command"] + ["--workload", "lib_batch", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and '"metrics"' not in done.stdout, "ran without the program"
    print(f"ok   without the program: exit {done.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
