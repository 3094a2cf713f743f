"""ARFIMA(p, d, q) simulation and semiparametric memory estimation.

Simulation runs the pipeline white noise -> MA filter -> fractional
integration -> AR recursion on one :class:`Series`.  The integration is the
library's GL difference at order -d, ``gl_difference(y, -d, truncation)``
(an ARFIMA equation is a fractional difference equation of order d).  For
p = q = 0, ``gl_difference`` at order d with the same truncation recovers
the driving noise exactly only when that truncation is at least n - 1:
both operators are then untruncated on the samples.  Below it the two
truncated series do not compose to the identity (at d = 0.3, n = 5000 and
seed 1, truncation 4998 misses the noise by 1.4e-4).

The noise generator is pinned for cross-platform reproducibility: a 64-bit
counter passed through the SplitMix64 permutation yields uniforms, mapped to
normals by Acklam's rational approximation of the inverse CDF.  Identical
(sigma, seed) always produce bit-identical sequences.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import Series, Taps, _real, _whole
from .glops import TRUNCATION_CAP, _without_trailing_zeros, gl_coefficients, gl_difference
from .spectral import (
    _fft_size, _lowest_amplitudes, _periodogram_regressor, _slope_fit, loglog_slope_fit)

__all__ = [
    "NoiseSpec",
    "ArfimaSpec",
    "MemoryEstimate",
    "white_noise",
    "simulate_arfima",
    "estimate_memory",
    "estimate_memory_from_periodogram",
    "theoretical_acf",
    "SAMPLE_CAP",
    "MAX_LAG_CAP",
]

# simulated samples (n + burn_in) and theoretical-ACF lags; see CHANGES.md
# for the measurements behind both caps
SAMPLE_CAP = 3 * 10**6
MAX_LAG_CAP = 10**4
# ArfimaSpec's default truncation stops here; perfbench's ARFIMA check pins it
_DEFAULT_TRUNCATION_CAP = 4096

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)

# Acklam's inverse normal CDF (relative error < 1.15e-9, ample for noise).
_PPF_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_PPF_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_PPF_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_PPF_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_PPF_SPLIT = 0.02425

# what the memory estimators say of a power of 0, given or underflowed
_NO_POSITIVE_POWER = "periodogram values must be positive (degenerate input)"


@dataclass(frozen=True)
class NoiseSpec:
    """Deterministic white-noise specification: N(0, sigma^2) draws keyed by seed.

    The distribution is fixed to a standard normal scaled by sigma.
    """

    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigma", _real(self.sigma, "sigma"))
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "seed", _whole(self.seed, "seed"))
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class ArfimaSpec:
    """Model orders and sample counts for an ARFIMA(p, d, q) simulation.

    |d| < 1 is enforced; the classical stationarity range is |d| < 0.5 and
    simulations outside it are flagged via :attr:`classical_stationary`.
    The AR and MA coefficients must be finite, and the AR polynomial stable
    (all roots of the reversed polynomial strictly inside the unit circle,
    tolerance 1e-6).  ``n + burn_in`` may not exceed ``SAMPLE_CAP``, nor
    the truncation ``glops.TRUNCATION_CAP``, at every d.  The
    GL truncation of the integration defaults to min(n + burn_in, 4096),
    the value the CLI's ``simulate`` prints; perfbench's ARFIMA check pins
    it until ROADMAP item 5.  Above 4096 samples that default truncates the
    integration, so no untruncated difference inverts it; a truncation of
    n + burn_in integrates over every sample.
    """

    d: float
    n: int
    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    burn_in: int = 0
    truncation: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", _real(self.d, "d"))
        if not abs(self.d) < 1.0:
            raise ValueError("memory order d must satisfy |d| < 1")
        for name in ("n", "burn_in"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if self.truncation is None:
            object.__setattr__(
                self, "truncation", min(self.n + self.burn_in, _DEFAULT_TRUNCATION_CAP))
        object.__setattr__(self, "truncation", _whole(self.truncation, "truncation"))
        if self.n < 1:
            raise ValueError("sample count n must be positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.n + self.burn_in > SAMPLE_CAP:
            raise ValueError(f"n + burn_in exceeds cap {SAMPLE_CAP}")
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")
        if self.truncation > TRUNCATION_CAP:  # refused at every d, as gl_coefficients does
            raise ValueError(f"truncation exceeds cap {TRUNCATION_CAP}")
        for name in ("ar", "ma"):
            object.__setattr__(self, name, tuple(
                _real(v, f"{name.upper()} coefficients") for v in getattr(self, name)))
        if self.ar:
            # roots of z^p - phi_1 z^(p-1) - ... - phi_p
            roots = np.roots(np.concatenate(([1.0], -np.asarray(self.ar))))
            if roots.size and np.abs(roots).max() > 1.0 - 1e-6:
                raise ValueError(
                    "unstable AR polynomial: root magnitude "
                    f"{np.abs(roots).max():.6g} reaches the unit circle"
                )

    @property
    def classical_stationary(self) -> bool:
        return abs(self.d) < 0.5


@dataclass(frozen=True)
class MemoryEstimate:
    """Log-periodogram estimate of the memory order.

    Classification is long iff d_hat > 2*std_err, short iff
    d_hat < -2*std_err, and none otherwise.  ``d_hat`` and ``std_err`` must
    be finite (stored as floats), ``std_err`` nonnegative, and ``bandwidth``
    an integer of at least 3 (stored as an int).
    """

    d_hat: float
    std_err: float
    bandwidth: int
    classification: str = field(init=False)

    def __post_init__(self):
        for name in ("d_hat", "std_err"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.std_err < 0.0:
            raise ValueError(f"std_err must be nonnegative, got {self.std_err}")
        object.__setattr__(self, "bandwidth", _whole(self.bandwidth, "bandwidth"))
        if self.bandwidth < 3:
            raise ValueError("bandwidth must be at least 3")
        threshold = 2.0 * self.std_err
        if self.d_hat > threshold:
            label = "long"
        elif self.d_hat < -threshold:
            label = "short"
        else:
            label = "none"
        object.__setattr__(self, "classification", label)


def _splitmix64(seed: int, n: int) -> np.ndarray:
    """SplitMix64 of the counters 1..n, in one array and one scratch buffer
    (uint64 arithmetic wraps)."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= _SPLITMIX_GAMMA
    z += np.uint64(seed)
    shifted = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=shifted)
    z ^= shifted
    z *= _SPLITMIX_M1
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= _SPLITMIX_M2
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def _horner(coeffs, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """((coeffs[0] x + coeffs[1]) x + ...) x + coeffs[-1], in one buffer,
    ``out`` if given."""
    acc = np.multiply(coeffs[0], x, out=out)
    for k in coeffs[1:-1]:
        acc += k
        acc *= x
    acc += coeffs[-1]
    return acc


def _norm_ppf(p: np.ndarray) -> np.ndarray:
    """Acklam's inverse normal CDF.

    The central rational is evaluated on the whole array; only the tail
    points (p below the split or above 1 - split, about 5% of uniforms) are
    gathered for the tail rational and written back.  Each point goes
    through the same floating-point operations as under a three-way split.
    """
    q = p - 0.5
    r = q * q
    x = _horner(_PPF_A, r)
    x *= q
    # q is spent: the denominator takes its buffer
    x /= _horner(_PPF_B + (1.0,), r, out=q)

    tails = np.flatnonzero((p < _PPF_SPLIT) | (p > 1.0 - _PPF_SPLIT))
    pt = p[tails]
    upper = pt > 0.5
    # 1 - pt is exact above 0.5 (Sterbenz) and rounds to at least 0.5 below,
    # so the minimum is the tail mass of either side
    q = np.sqrt(-2.0 * np.log(np.minimum(pt, 1.0 - pt)))
    xt = _horner(_PPF_C, q) / _horner(_PPF_D + (1.0,), q)
    x[tails] = np.where(upper, -xt, xt)
    return x


def white_noise(spec: NoiseSpec, n: int) -> Series:
    """n pseudo-random N(0, sigma^2) deviates; identical spec gives
    bit-identical output on every platform.  The standard normal draws are
    scaled by sigma, except at sigma = 1, where the product would be the
    draws bit for bit.  A sigma so large that a draw overflows raises
    ValueError naming it."""
    n = _whole(n, "n")
    if n < 1:
        raise ValueError("n must be positive")
    bits = _splitmix64(spec.seed, n)
    # 53 high bits, offset to the open interval (0, 1)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    draws = _norm_ppf(u)
    try:
        if spec.sigma != 1.0:
            with np.errstate(over="ignore"):
                draws *= spec.sigma
        return Series(draws, step=1.0, start=0.0)
    except ValueError:
        # the draws are finite, so only their product with sigma can fail
        # Series' finiteness check
        raise ValueError(f"noise overflows at sigma={spec.sigma:g}") from None


def simulate_arfima(spec: ArfimaSpec, noise: NoiseSpec) -> Series:
    """Simulate an ARFIMA(p, d, q) path.

    Pipeline, each stage a :class:`Series`: white noise -> MA(q) filter ->
    fractional integration of order d, ``gl_difference(y, -d,
    spec.truncation)`` -> AR(p) recursion; the first burn_in samples are
    then discarded.  Raises ValueError if the path leaves the
    double-precision range.
    """
    y = white_noise(noise, spec.n + spec.burn_in)
    if spec.ma:
        ma = Taps(_without_trailing_zeros((1.0,) + spec.ma))
        y = y.with_values(_kernels.causal_apply(y, ma))
    if spec.d != 0.0:
        y = gl_difference(y, -spec.d, spec.truncation)
    if spec.ar:
        y = _kernels.ar_recurse(y, spec.ar)
    return y.with_values(y.values[spec.burn_in :])


def estimate_memory_from_periodogram(
    omega: np.ndarray, power: np.ndarray, bandwidth: int
) -> MemoryEstimate:
    """Log-periodogram regression on precomputed (omega_j, S_j) pairs.

    OLS of log S_j on -2 log omega_j over the first ``bandwidth``
    frequencies; the slope is d_hat and the regression supplies its
    standard error.
    """
    omega = np.asarray(omega, dtype=np.float64)
    power = np.asarray(power, dtype=np.float64)
    if omega.size != power.size:
        raise ValueError("omega and power must have equal length")
    bandwidth = _whole(bandwidth, "bandwidth")
    if not (3 <= bandwidth <= omega.size):
        raise ValueError("bandwidth must satisfy 3 <= bandwidth <= len(omega)")
    omega = omega[:bandwidth]
    power = power[:bandwidth]
    if (power <= 0.0).any():
        raise ValueError(_NO_POSITIVE_POWER)
    fit = loglog_slope_fit(omega, power)
    # regressing on -2 log(omega) halves and negates the log-log slope
    return MemoryEstimate(d_hat=-fit.slope / 2.0, std_err=fit.stderr / 2.0, bandwidth=bandwidth)


def estimate_memory(y: Series, bandwidth: int | None = None) -> MemoryEstimate:
    """Estimate the memory order of a series from its lowest periodogram
    frequencies.  Default bandwidth is floor(sqrt(n)), which needs n >= 9.
    The estimate does not depend on scale.  ValueError if the series is
    constant, has no power at one of its lowest ``bandwidth`` frequencies,
    a periodogram amplitude overflows or the powers relative to the
    largest underflow to 0.

    One pass from the series' memoised centred transform to the fit: the
    regressor log omega_j is memoised per (n_fft, bandwidth, step), and the
    fit runs the OLS core of ``spectral.loglog_slope_fit`` without its
    checks, which these ordinates pass.  The result is bit for bit
    :func:`estimate_memory_from_periodogram` of the same ordinates."""
    n = len(y)
    if bandwidth is None:
        if n < 9:
            raise ValueError(
                f"series needs at least 9 samples for the default bandwidth, got n={n}")
        bandwidth = math.isqrt(n)
    bandwidth = _whole(bandwidth, "bandwidth")
    if not (3 <= bandwidth <= n / 2):
        raise ValueError("bandwidth must satisfy 3 <= bandwidth <= n/2")
    if (y.values == y.values[0]).all():
        raise ValueError("series is constant: its memory cannot be estimated")
    n_fft = _fft_size(n)
    amplitude = _lowest_amplitudes(y, n_fft, bandwidth)
    if (amplitude == 0.0).any():
        raise ValueError("series has no power at its lowest frequencies: "
                         "its memory cannot be estimated")
    # the fit is scale-free, so square relative to the largest: |yhat|^2 underflows near 1e-160
    power = (amplitude / amplitude.max()) ** 2
    if (power <= 0.0).any():
        raise ValueError(_NO_POSITIVE_POWER)
    fit = _slope_fit(_periodogram_regressor(n_fft, bandwidth, y.step), np.log(power))
    return MemoryEstimate(d_hat=-fit.slope / 2.0, std_err=fit.stderr / 2.0, bandwidth=bandwidth)


def theoretical_acf(
    d: float, sigma: float, max_lag: int, truncation: int | None = None
) -> np.ndarray:
    """Noise-free autocovariance gamma(k) of an ARFIMA(0, d, 0) process,
    lags 0..max_lag; ``max_lag`` may not exceed ``MAX_LAG_CAP``.

    By default it is Hosking's closed form (Fractional differencing,
    Biometrika 1981), gamma(0) = sigma^2 Gamma(1-2d) / Gamma(1-d)^2 and
    gamma(k) = gamma(k-1) (k-1+d) / (k-d), in O(max_lag): within
    2e-15 * (k+1) relative of 40-digit values at every lag up to the cap.

    With a ``truncation`` J (at least 10*max_lag) it is instead
    sigma^2 sum_{j<=J} psi_j psi_{j+k}, psi the MA-infinity weights of
    (1-L)^(-d).  That sum falls short of the closed form by its omitted
    tail, about sigma^2 J^(2d-1) / ((1-2d) Gamma(d)^2) at lags well below
    J: at J = 1e5 that is 0.21% of gamma(0) at d = 0.3 and 22% at d = 0.45
    (4.1% and 46% of gamma(200)).  The truncation is rejected when the
    leading omitted term psi_J^2 exceeds 1e-6 of gamma(0); that understates
    the tail (about 2.5e5 times at d = 0.3), so the guard only rejects very
    short truncations.
    """
    d, sigma = _real(d, "d"), _real(sigma, "sigma")
    if not abs(d) < 0.5:
        raise ValueError("theoretical ACF requires |d| < 0.5")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    max_lag = _whole(max_lag, "max_lag")
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if max_lag > MAX_LAG_CAP:
        raise ValueError(f"max_lag exceeds cap {MAX_LAG_CAP}")
    variance = sigma * sigma  # inf, not OverflowError, when too large
    with np.errstate(over="ignore", invalid="ignore"):
        if truncation is None:
            # Hosking's gamma(0), then gamma(k) = gamma(k-1) (k-1+d) / (k-d): no tail
            gammas = np.cumprod(np.r_[variance * math.gamma(1 - 2 * d) / math.gamma(1 - d) ** 2,
                                      (np.arange(max_lag) + d) / (np.arange(max_lag) + 1 - d)])
            tail_estimate = 0.0
        else:
            truncation = _whole(truncation, "truncation")
            if truncation < 10 * max_lag:
                raise ValueError("truncation must be at least 10 * max_lag")
            psi = gl_coefficients(-d, truncation + max_lag)
            # only max_lag + 1 outputs are kept: at a few hundred lags their
            # direct sums (max_lag + 1 dot products of length truncation + 1)
            # cost less than the full FFT convolution that _kernels.convolve
            # would compute
            gammas = variance * np.correlate(psi, psi[: truncation + 1], "valid")
            tail_estimate = variance * psi[truncation] ** 2
    if not np.isfinite(gammas).all():
        raise ValueError(f"theoretical ACF overflows at sigma={sigma:g}")
    if tail_estimate > 1e-6 * gammas[0]:
        raise ValueError(
            f"truncation {truncation} too small for d={d:g}: tail estimate "
            f"{tail_estimate:.3e} exceeds 1e-6 of gamma(0)={gammas[0]:.3e}"
        )
    return gammas
