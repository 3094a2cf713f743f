"""Brute-force index-convention oracles for the hot kernels: each kernel is
checked against a loop over lags written straight from its definition, on
sizes below and above the direct/FFT crossover of ``_kernels.convolve`` and
on both sides of every choice of the circular (length-n) route."""

import sys
import threading

import numpy as np
import pytest

from fracspec import NoiseSpec, Series, gl_coefficients, gl_difference, periodogram, white_noise
from fracspec import _kernels, glops


def _brute_causal(y, c):
    n, k = len(y), len(c)
    out = np.zeros(n)
    for m in range(min(n, k)):
        out[m:] += c[m] * y[: n - m]
    return out


def _brute_two_sided(y, w, periodic):
    # weight k sits at lag k - half, so an even length reaches lag half + 1
    n = len(y)
    half = (len(w) - 1) // 2
    t = np.arange(n)
    out = np.zeros(n)
    for k, wk in enumerate(w):
        i = t - (k - half)
        if periodic:
            out += wk * y[i % n]
        else:
            inside = (0 <= i) & (i < n)
            out[inside] += wk * y[i[inside]]
    return out


def _brute_ar(x, phi):
    out = np.zeros(len(x))
    for t in range(len(x)):
        out[t] = x[t] + sum(
            phi[i] * out[t - 1 - i] for i in range(len(phi)) if t - 1 - i >= 0
        )
    return out


def _assert_within_bound(got, want, y, w, atol):
    assert np.allclose(got, want, atol=atol)
    # the stated error bound of both convolution paths
    assert np.abs(got - want).max() <= 1e-13 * np.abs(w).sum() * np.abs(y).max()


# sizes whose convolutions have both operands at or above FFT_MIN_SIZE
_FFT_CAUSAL = [(600, 700), (1500, 400)]
_FFT_TWO_SIDED = [(700, 350), (300, 900)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.mark.parametrize("n,k", [(16, 4), (7, 12), (33, 33), (1, 5), (5, 1)] + _FFT_CAUSAL)
def test_causal_apply_matches_brute_force(rng, n, k):
    y = rng.normal(size=n)
    c = rng.normal(size=k)
    _assert_within_bound(_kernels.causal_apply(y, c), _brute_causal(y, c), y, c, 1e-13)


@pytest.mark.parametrize("n,half", [(16, 3), (10, 12), (31, 8), (5, 40), (1, 3)] + _FFT_TWO_SIDED)
@pytest.mark.parametrize("periodic", [False, True])
def test_two_sided_apply_matches_brute_force(rng, n, half, periodic):
    y = rng.normal(size=n)
    w = rng.normal(size=2 * half + 1)
    if periodic:
        got = _kernels.two_sided_apply_periodic(y, w)
    else:
        got = _kernels.two_sided_apply_zero(y, w)
    _assert_within_bound(got, _brute_two_sided(y, w, periodic), y, w, 1e-12)


def test_fft_cases_are_above_the_crossover():
    sizes = [min(n, k) for n, k in _FFT_CAUSAL]
    # the periodic boundary convolves the series wrap-padded by half
    sizes += [min(n + 2 * half, 2 * half + 1) for n, half in _FFT_TWO_SIDED]
    # the zero boundary at (300, 900) stays direct, a 300-sample series
    n, half = _FFT_TWO_SIDED[0]
    sizes.append(min(n, 2 * half + 1))
    assert min(sizes) >= _kernels.FFT_MIN_SIZE


@pytest.mark.parametrize("taps", [_kernels.TAPS_FFT_MIN_SIZE - 1, _kernels.TAPS_FFT_MIN_SIZE])
def test_gl_difference_on_both_sides_of_the_crossover(taps):
    glops._operator_cache.clear()
    y = white_noise(NoiseSpec(seed=taps), 3000)
    c = gl_coefficients(0.4, taps - 1)
    got = gl_difference(y, 0.4, taps - 1).values
    # the operator memoises a spectrum only on the FFT path
    operator = glops._operator_cache[(0.4, taps - 1)]
    assert bool(operator._spectra) == (taps >= _kernels.TAPS_FFT_MIN_SIZE)
    _assert_within_bound(got, _brute_causal(y.values, c), y.values, c, 1e-13)


@pytest.mark.parametrize("short", [_kernels.FFT_MIN_SIZE - 1, _kernels.FFT_MIN_SIZE])
@pytest.mark.parametrize("short_first", [False, True])
def test_convolve_crossover_boundary(rng, monkeypatch, short, short_first):
    long_, short_ = rng.normal(size=2000), rng.normal(size=short)
    y, w = (short_, long_) if short_first else (long_, short_)
    want = np.convolve(y, w)
    direct_calls = []
    real_convolve = np.convolve

    def counting_convolve(*args):
        direct_calls.append(args)
        return real_convolve(*args)

    monkeypatch.setattr(_kernels.np, "convolve", counting_convolve)
    got = _kernels.convolve(y, w)
    assert got.shape == want.shape
    if short < _kernels.FFT_MIN_SIZE:
        assert len(direct_calls) == 1
        assert np.array_equal(got, want)
    else:
        assert direct_calls == []
        assert np.abs(got - want).max() <= 1e-13 * np.abs(w).sum() * np.abs(y).max()


@pytest.mark.parametrize(
    "short", [_kernels.TAPS_FFT_MIN_SIZE - 1, _kernels.TAPS_FFT_MIN_SIZE, _kernels.FFT_MIN_SIZE - 1]
)
@pytest.mark.parametrize("taps_short", [False, True])
def test_taps_have_their_own_crossover(rng, monkeypatch, short, taps_short):
    # between the two crossovers the same weights take the direct sum as a
    # plain array and the FFT path as Taps, on a miss and on a hit alike
    long_, short_ = rng.normal(size=2000), rng.normal(size=short)
    y, w = (long_, short_) if taps_short else (short_, long_)
    taps = _kernels.Taps(w)
    want = np.convolve(y, w)
    direct_calls = []
    real_convolve = np.convolve

    def counting_convolve(*args):
        direct_calls.append(args)
        return real_convolve(*args)

    monkeypatch.setattr(_kernels.np, "convolve", counting_convolve)
    assert np.array_equal(_kernels.convolve(y, w), want)
    assert len(direct_calls) == 1
    miss = _kernels.convolve(y, taps)
    hit = _kernels.convolve(y, taps)
    fft = short >= _kernels.TAPS_FFT_MIN_SIZE
    assert len(direct_calls) == (1 if fft else 3)
    assert bool(taps._spectra) == fft
    assert np.array_equal(hit, miss)
    assert np.abs(miss - want).max() <= 1e-13 * np.abs(w).sum() * np.abs(y).max()


def test_fft_length_is_smallest_5_smooth():
    def smooth(x):
        for p in (2, 3, 5):
            while x % p == 0:
                x //= p
        return x == 1

    lengths = [_kernels._fft_length(t) for t in range(1, 3000)]
    assert lengths == [next(s for s in range(t, 2 * t + 1) if smooth(s)) for t in range(1, 3000)]


def test_causal_apply_strips_exact_trailing_zeros(rng, monkeypatch):
    y = rng.normal(size=5000)
    c = np.zeros(5000)
    c[:3] = [1.0, -2.0, 1.0]
    seen = []
    real_convolve = _kernels.convolve

    def recording_convolve(a, b):
        seen.append(len(b))
        return real_convolve(a, b)

    monkeypatch.setattr(_kernels, "convolve", recording_convolve)
    got = _kernels.causal_apply(y, c)
    assert seen == [3]
    assert np.array_equal(got, np.convolve(y, c[:3])[:5000])
    assert np.array_equal(_kernels.causal_apply(y, np.zeros(5)), np.zeros(5000))


@pytest.mark.parametrize("p", [1, 2, 5])
def test_ar_recurse_matches_brute_force(rng, p):
    x = rng.normal(size=40)
    phi = rng.normal(size=p) * 0.3
    assert np.allclose(_kernels.ar_recurse(x, phi), _brute_ar(x, phi), atol=1e-12)


# The circular route.  A Series of 5-smooth length n and Taps of at least
# TAPS_FFT_MIN_SIZE weights take it for the periodic boundary, at any
# half-width; the folded spectrum it memoises under ("folded", n) shows it.
_MIN = _kernels.TAPS_FFT_MIN_SIZE
_periodic = _kernels.two_sided_apply_periodic


def _took_circular(taps, n):
    return ("folded", n) in taps._spectra


@pytest.mark.parametrize(
    "n,taps,circular",
    [
        # 5-smooth against not
        (4096, 513, True), (4099, 513, False), (1000, 225, True), (1009, 225, False),
        # one tap below the crossover against at it
        (4096, _MIN - 1, False), (4096, _MIN, True),
        # a half-width beyond the series length
        (100, 601, True),
    ],
)
def test_circular_route_on_both_sides_of_each_choice(n, taps, circular):
    rng = np.random.default_rng(n + taps)
    y = Series(rng.normal(size=n))
    w = _kernels.Taps(rng.normal(size=taps))
    got = _periodic(y, w)
    assert _took_circular(w, n) == circular
    assert got.shape == (n,)
    _assert_within_bound(got, _brute_two_sided(y.values, w.weights, True), y.values, w.weights,
                         1e-12)


def test_call_order_on_one_series_gives_the_same_bits():
    rng = np.random.default_rng(3)
    values = rng.normal(size=4096)
    window = _kernels.Taps(rng.normal(size=2 * 128 + 1))
    outputs = []
    for first in ("periodic", "periodogram"):
        y = Series(values)
        if first == "periodogram":
            power = periodogram(y)[1]
        z = _periodic(y, window)
        if first == "periodic":
            power = periodogram(y)[1]
        outputs.append((z, power))
    assert _took_circular(window, 4096)
    assert np.array_equal(outputs[0][0], outputs[1][0])
    assert np.array_equal(outputs[0][1], outputs[1][1])


def test_memo_hits_are_bit_identical_to_misses():
    rng = np.random.default_rng(5)
    values, weights = rng.normal(size=4096), rng.normal(size=257)
    y, w = Series(values), _kernels.Taps(weights)
    miss = _periodic(y, w)  # both memos empty
    spectrum = y.rfft()
    assert _took_circular(w, 4096) and not spectrum.flags.writeable
    results = [
        _periodic(y, w),  # both hit
        _periodic(y, _kernels.Taps(weights)),  # the series' memo hits, the operator's misses
        _periodic(Series(values), w),  # the operator's memo hits, the series' misses
    ]
    assert y.rfft() is spectrum
    assert np.array_equal(spectrum[1:], np.fft.rfft(values - values.mean())[1:])
    assert spectrum[0] == values.sum()
    assert all(np.array_equal(got, miss) for got in results)


def test_threads_sharing_one_series_agree():
    # more threads than cores, each running the periodic difference and the
    # periodogram on one shared series and window whose memos start empty,
    # with a short switch interval so the memo fills race
    rng = np.random.default_rng(7)
    values, weights = rng.normal(size=4096), rng.normal(size=2 * 128 + 1)

    def steps(y, w):
        return _periodic(y, w), periodogram(y)[1]

    want = steps(Series(values), _kernels.Taps(weights))
    y, w = Series(values), _kernels.Taps(weights)
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers

    def work(slot):
        start.wait()
        results[slot] = [steps(y, w) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert len(got) == 3
        for z, power in got:
            assert np.array_equal(z, want[0]) and np.array_equal(power, want[1])


@pytest.mark.parametrize("kind", ["causal", "zero", "periodic"])
def test_plain_arrays_keep_the_linear_route(kind):
    # the sizes of the circular cases above, given as an array: the output
    # is the linear product's, bit for bit, and no length-n spectrum is kept
    rng = np.random.default_rng(11)
    y = rng.normal(size=4096)
    w = _kernels.Taps(rng.normal(size=257))
    half = 128
    if kind == "causal":
        got, want = _kernels.causal_apply(y, w), _kernels.convolve(y, w)[:4096]
    elif kind == "zero":
        got, want = _kernels.two_sided_apply_zero(y, w), _kernels.convolve(y, w)[half : half + 4096]
    else:
        got = _periodic(y, w)
        want = _kernels.convolve(np.pad(y, half, mode="wrap"), w)[2 * half : 2 * half + 4096]
    assert np.array_equal(got, want)
    assert not _took_circular(w, 4096)
