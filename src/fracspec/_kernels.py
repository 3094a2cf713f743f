"""Hot inner loops: truncated causal convolution, two-sided kernel
application, and the AR recursion.

The three convolutions are direct ``np.convolve`` calls; the periodic
boundary wrap-pads the series by the kernel half-width and keeps the
"valid" part.  The AR recursion is inherently sequential and runs as a
pure-Python loop over floats, which is cheaper than indexing numpy scalars.
"""

import numpy as np

__all__ = [
    "causal_apply",
    "two_sided_apply_zero",
    "two_sided_apply_periodic",
    "ar_recurse",
]


def _as_f8(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


def causal_apply(y, coeffs) -> np.ndarray:
    """z[t] = sum_{m=0}^{min(t, M)} coeffs[m] * y[t-m] (zero pre-sample)."""
    y = _as_f8(y)
    return np.convolve(y, _as_f8(coeffs))[: y.shape[0]]


def two_sided_apply_zero(y, weights) -> np.ndarray:
    """z[t] = sum_{m=-M}^{M} weights[m+M] * y[t-m], out-of-range samples zero."""
    y, weights = _as_f8(y), _as_f8(weights)
    half = (weights.shape[0] - 1) // 2
    return np.convolve(y, weights)[half : half + y.shape[0]]


def two_sided_apply_periodic(y, weights) -> np.ndarray:
    """z[t] = sum_{m=-M}^{M} weights[m+M] * y[(t-m) mod n]."""
    y, weights = _as_f8(y), _as_f8(weights)
    half = (weights.shape[0] - 1) // 2
    # wrap mode repeats the series as often as needed, so half may exceed n
    return np.convolve(np.pad(y, half, mode="wrap"), weights, "valid")


def ar_recurse(x, phi) -> np.ndarray:
    """out[t] = x[t] + sum_i phi[i] * out[t-1-i] with zero initial history."""
    phi = _as_f8(phi).tolist()
    p = len(phi)
    out = []
    for t, acc in enumerate(_as_f8(x).tolist()):
        for i in range(min(p, t)):
            acc += phi[i] * out[t - 1 - i]
        out.append(acc)
    return np.array(out, dtype=np.float64)
