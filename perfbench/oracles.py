"""Independent reference computations used to check fracspec's outputs.

Nothing here calls fracspec: every reference is rebuilt from numpy and the
standard library, by a route other than the program's, so a wrong program
result cannot also be the reference.

- GL coefficients from log-gamma ratios (the program uses a cumulative
  product).
- Exact-kernel weights from the large-lag asymptotic expansion of the
  Fourier integral for |m| >= 12 and from Gauss-Legendre quadrature after
  the substitution x = pi t^2 below that (the program uses panel quadrature
  and the 1F2 series).
- Convolutions through numpy FFTs (the program convolves directly).
- The log-periodogram regression through ``np.polyfit``.
"""

import math

import numpy as np

# CSV numbers carry 12 significant digits, so each written value is off by
# at most half a unit in the 12th digit.
CSV_REL_ROUNDING = 5e-12
# A correct convolution output written to CSV is off its reference by about
# CSV_REL_ROUNDING of the convolution scale (sum |w| * max |y|); the
# reference kernel weights add under 2e-12 of it.  Allow four roundings,
# for in-memory outputs too, so one bound covers every convolution check.
CONV_REL_TOL = 4 * CSV_REL_ROUNDING
# The log-periodogram estimate against this module's recomputation.
ESTIMATE_TOL = 1e-9

_ASYMPTOTIC_MIN_LAG = 12
_SMALL_LAG_NODES, _SMALL_LAG_WEIGHTS = np.polynomial.legendre.leggauss(400)


def read_series_csv(path) -> np.ndarray:
    """The value column of a fracspec series CSV (header ``t,value``)."""
    return read_csv_columns(path)[:, 1]


def read_csv_columns(path) -> np.ndarray:
    """Data rows of a fracspec CSV as a 2-D float array ('#' lines skipped,
    first remaining line taken as the header)."""
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")][1:]
    return np.array([[float(f) for f in row.split(",")] for row in rows], dtype=np.float64)


def gl_coefficients(order: float, truncation: int) -> np.ndarray:
    """c_m = (-1)^m C(order, m) = Gamma(m - order) / (Gamma(-order) Gamma(m + 1)).

    Valid for non-integer order; ``math.lgamma`` gives log |Gamma|.
    """
    base = math.lgamma(-order)
    out = np.empty(truncation + 1)
    for m in range(truncation + 1):
        mag = math.exp(math.lgamma(m - order) - base - math.lgamma(m + 1.0))
        out[m] = _gamma_sign(m - order) * _gamma_sign(-order) * mag
    return out


def _gamma_sign(x: float) -> float:
    # Gamma is positive for x > 0 and alternates in sign on (-k-1, -k)
    return 1.0 if x > 0 else (-1.0) ** (math.floor(-x) + 1)


def _fourier_power(order: float, lags: np.ndarray) -> np.ndarray:
    """E(m) = int_0^pi x^order e^{imx} dx for lags m >= 12 (asymptotic series).

    E(m) = Gamma(a+1) e^{i pi (a+1)/2} m^{-(a+1)}
           + e^{i m pi} sum_k c_k pi^{a-k} (i m)^{-(k+1)},
    c_0 = 1, c_{k+1} = -(a - k) c_k.  Terms shrink like (a - k)/(m pi).
    """
    m = lags.astype(np.float64)
    im = 1j * m
    head = math.gamma(order + 1.0) * np.exp(0.5j * math.pi * (order + 1.0)) * m ** -(order + 1.0)
    tail = np.zeros(m.size, dtype=np.complex128)
    c = 1.0
    term = math.pi**order / im
    for k in range(80):
        tail += term
        c = -(order - k) * c
        term = c * math.pi ** (order - k - 1) / im ** (k + 2)
        if np.all(np.abs(term) <= 1e-18 * np.abs(tail)):
            break
    return head + np.exp(1j * math.pi * m) * tail


def _fourier_power_small(order: float, lags: np.ndarray) -> np.ndarray:
    """E(m) for small lags by Gauss-Legendre after x = pi t^2.

    The integrand becomes 2 pi^(a+1) t^(2a+1) e^{i m pi t^2}, which is smooth
    for order 0.5 (the only exact order the workloads use); other orders keep
    an algebraic endpoint factor and lose accuracy.
    """
    t = 0.5 * (_SMALL_LAG_NODES + 1.0)
    w = 0.5 * _SMALL_LAG_WEIGHTS
    f = 2.0 * math.pi ** (order + 1.0) * t ** (2.0 * order + 1.0) * w
    x = math.pi * t * t
    return np.exp(1j * np.outer(lags, x)) @ f


def exact_kernel_weights(order: float, half_width: int) -> np.ndarray:
    """Weights K(-M)..K(M) of the exact fractional difference of ``order``."""
    lags = np.arange(half_width + 1)
    small = lags < _ASYMPTOTIC_MIN_LAG
    e = np.empty(lags.size, dtype=np.complex128)
    e[small] = _fourier_power_small(order, lags[small])
    if (~small).any():
        e[~small] = _fourier_power(order, lags[~small])
    c = math.cos(0.5 * math.pi * order)
    s = math.sin(0.5 * math.pi * order)
    pos = (c * e.real - s * e.imag) / math.pi
    neg = (c * e.real + s * e.imag) / math.pi
    return np.concatenate((neg[:0:-1], pos))


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.size + b.size - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def causal_reference(y: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """z[t] = sum_{m <= t} coeffs[m] y[t-m], by FFT."""
    return _fft_convolve(y, coeffs)[: y.size]


def two_sided_zero_reference(y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    half = (weights.size - 1) // 2
    return _fft_convolve(y, weights)[half : half + y.size]


def two_sided_periodic_reference(y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Circular convolution with the weights folded mod n."""
    n = y.size
    half = (weights.size - 1) // 2
    folded = np.zeros(n)
    np.add.at(folded, np.arange(-half, half + 1) % n, weights)
    return np.fft.irfft(np.fft.rfft(y) * np.fft.rfft(folded), n)


def convolution_scale(y: np.ndarray, weights: np.ndarray) -> float:
    """sum |w| * max |y|: bounds every output of a convolution of y with w."""
    return float(np.abs(weights).sum() * np.abs(y).max())


def log_periodogram_d(y: np.ndarray, bandwidth: int) -> float:
    """Memory order from OLS of log S_j on log omega_j, j = 1..bandwidth.

    Same estimator as fracspec's (mean removed, zero-padded to a power of
    two above 64 samples, 1/n_fft normalisation), computed independently.
    """
    n = y.size
    n_fft = n if n <= 64 else 1 << (n - 1).bit_length()
    spec = np.fft.fft(y - y.mean(), n_fft)
    j = np.arange(1, bandwidth + 1)
    power = np.abs(spec[j]) ** 2 / n_fft
    slope = np.polyfit(np.log(2.0 * math.pi * j / n_fft), np.log(power), 1)[0]
    return -slope / 2.0


def log_periodogram_stderr(bandwidth: int) -> float:
    """Asymptotic standard error pi / sqrt(24 m) of the log-periodogram d."""
    return math.pi / math.sqrt(24.0 * bandwidth)


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
