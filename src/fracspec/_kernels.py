"""Hot inner loops: linear convolution, truncated causal convolution,
two-sided kernel application, and the AR recursion.

All three convolutions go through ``convolve``.  It sums directly with
``np.convolve`` while the shorter operand has fewer than ``FFT_MIN_SIZE``
samples, and otherwise multiplies real FFTs zero-padded to a 5-smooth length.
The crossover is measured: on a 2-vCPU x86 host the FFT product starts to win
at a shorter side of 320-448 samples for series of 2k-50k samples, and above
512 for series of up to 1k samples or of 1e5.  The direct path keeps
``np.convolve``'s rounding bit for bit.  The FFT path is within
1e-13 * sum|w| * max|y| of the exact sum; measured against the direct sum it
is within ~1.2e-16 times that scale up to n = M = 1e5.  An operand that is a
window (an object with ``weights`` and a memoised ``spectrum(size)``, such as
``exactops.KernelWindow``) supplies its weight spectrum to the FFT path
instead of having it recomputed; the values are the same, so the output is
bit-identical.  The periodic boundary wrap-pads the series by the kernel
half-width and keeps the part the padding fully covers.  The AR recursion
is inherently sequential and runs as a pure-Python loop over floats, which
is cheaper than indexing numpy scalars.
"""

import numpy as np

__all__ = [
    "FFT_MIN_SIZE",
    "convolve",
    "causal_apply",
    "two_sided_apply_zero",
    "two_sided_apply_periodic",
    "ar_recurse",
]

# direct np.convolve while the shorter operand is below this many samples
FFT_MIN_SIZE = 384


def _as_f8(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


def _fft_length(target: int) -> int:
    """Smallest 2^a 3^b 5^c >= target."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def convolve(y, w) -> np.ndarray:
    """Full linear convolution, length len(y) + len(w) - 1.

    ``w`` is an array of weights or a window whose memoised spectrum the
    FFT path reuses.
    """
    window = w if hasattr(w, "spectrum") else None
    y, w = _as_f8(y), _as_f8(w if window is None else window.weights)
    if min(y.shape[0], w.shape[0]) < FFT_MIN_SIZE:
        return np.convolve(y, w)
    full = y.shape[0] + w.shape[0] - 1
    size = _fft_length(full)
    w_hat = np.fft.rfft(w, size) if window is None else window.spectrum(size)
    return np.fft.irfft(np.fft.rfft(y, size) * w_hat, size)[:full]


def causal_apply(y, coeffs) -> np.ndarray:
    """z[t] = sum_{m=0}^{min(t, M)} coeffs[m] * y[t-m] (zero pre-sample)."""
    y, coeffs = _as_f8(y), _as_f8(coeffs)
    # exact trailing zeros (GL terms of a nonnegative integer order) add
    # nothing; dropping them keeps such orders on the direct sum at any length
    nonzero = np.flatnonzero(coeffs)
    coeffs = coeffs[: nonzero[-1] + 1 if nonzero.size else 1]
    return convolve(y, coeffs)[: y.shape[0]]


def two_sided_apply_zero(y, weights) -> np.ndarray:
    """z[t] = sum_{m=-M}^{M} weights[m+M] * y[t-m], out-of-range samples zero.

    ``weights`` is an array or a window, as for :func:`convolve`.
    """
    y = _as_f8(y)
    half = (len(weights) - 1) // 2
    return convolve(y, weights)[half : half + y.shape[0]]


def two_sided_apply_periodic(y, weights) -> np.ndarray:
    """z[t] = sum_{m=-M}^{M} weights[m+M] * y[(t-m) mod n].

    ``weights`` is an array or a window, as for :func:`convolve`.
    """
    y = _as_f8(y)
    n = y.shape[0]
    half = (len(weights) - 1) // 2
    if half <= n:
        padded = np.concatenate((y[n - half :], y, y[:half]))
    else:
        # the padding repeats the series more than once
        padded = y[np.arange(-half, n + half) % n]
    return convolve(padded, weights)[2 * half : 2 * half + n]


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
