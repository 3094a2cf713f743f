"""Asymptotic-scaling series, run in a fresh interpreter so every build is cold.

    python scaling.py full|tiny

Times a cold ``exact_kernel_window(0.5, M)`` for doubling M and
``fracspec._kernels.causal_apply`` at n = M + 1 coefficients over a range
of n, fits the log-log slope of each, and prints one JSON object.  An O(M^2)
window build and an O(n*M) direct convolution both read as a slope near 2.
"""

import json
import sys
import time

import numpy as np

SIZES = {
    "full": {"window": (128, 256, 512, 1024, 2048, 4096),
             "causal": (1000, 3000, 10000, 30000, 100000)},
    "tiny": {"window": (16, 32, 64, 128), "causal": (300, 1000, 3000)},
}


def _best_of(fn, budget_s=0.2, max_reps=5) -> float:
    """Fastest of up to ``max_reps`` calls, stopping once ``budget_s`` is spent."""
    best = float("inf")
    spent = 0.0
    for _ in range(max_reps):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        spent += elapsed
        if spent >= budget_s:
            break
    return best


def _slope(x, t) -> float:
    return float(np.polyfit(np.log(x), np.log(t), 1)[0])


def main() -> int:
    sizes = SIZES[sys.argv[1]]
    from fracspec import _kernels, exact_kernel_window

    window_s = []
    for m in sizes["window"]:
        start = time.perf_counter()
        exact_kernel_window(0.5, m)  # each (order, M) key is new, so cold
        window_s.append(time.perf_counter() - start)

    rng = np.random.default_rng(0)
    causal_s = []
    for n in sizes["causal"]:
        y = rng.standard_normal(n)
        coeffs = rng.standard_normal(n + 1)
        causal_s.append(_best_of(lambda: _kernels.causal_apply(y, coeffs)))

    n_max = sizes["causal"][-1]
    m_max = sizes["window"][-1]
    print(json.dumps({
        "exactops.window_build_slope": _slope(sizes["window"], window_s),
        "exactops.window_build_max_s": window_s[-1],
        # Gauss-Legendre nodes the panel route evaluates: 16 per panel,
        # 52 doubling panels at lag 0 and m + 3 panels at lag m.
        "exactops.window_build_quad_nodes": 16 * (52 + m_max * (m_max + 1) // 2 + 3 * m_max),
        "kernels.causal_apply_slope": _slope(sizes["causal"], causal_s),
        "kernels.causal_apply_max_s": causal_s[-1],
        # direct-convolution work and traffic at the largest size (computed)
        "kernels.causal_apply_max_macs": n_max * min(n_max, n_max + 1),
        "kernels.causal_apply_max_bytes": 8 * (n_max + (n_max + 1) + n_max),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
