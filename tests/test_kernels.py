"""Brute-force index-convention oracles for the hot kernels: each kernel is
checked against a loop over lags written straight from its definition, on
sizes below and above the one direct/FFT crossover, ``FFT_MIN_SIZE``, at the
alias-free FFT length of each kept window, and, for the periodic boundary,
on its one circular (length-n) route at every n and window length.  A
kernel's type fixes its lags: ``Taps`` are causal and a ``KernelWindow``
centred, at every boundary."""

import re
import sys
import threading

import numpy as np
import pytest

from fracspec import (
    NoiseSpec,
    Series,
    exact_difference,
    exact_kernel_window,
    gl_coefficients,
    gl_difference,
    periodogram,
    white_noise,
)
from fracspec import _kernels, glops


def _brute_causal(y, c):
    n, k = len(y), len(c)
    out = np.zeros(n)
    for m in range(min(n, k)):
        out[m:] += c[m] * y[: n - m]
    return out


def _brute_two_sided(y, w, periodic, first=None):
    # weight k sits at lag first + k; a centred window's first lag is -half
    n = len(y)
    first = -(len(w) // 2) if first is None else first
    t = np.arange(n)
    out = np.zeros(n)
    for k, wk in enumerate(w):
        i = t - (first + k)
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


# sizes whose convolutions have both operands at or above FFT_MIN_SIZE; the
# periodic sums are length-n products at n = 700 and n = 300 (5-smooth) alike
_FFT_CAUSAL = [(600, 700), (1500, 400)]
_FFT_TWO_SIDED = [(700, 350), (300, 900)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.mark.parametrize("n,k", [(16, 4), (7, 12), (33, 33), (1, 5), (5, 1)] + _FFT_CAUSAL)
def test_causal_apply_matches_brute_force(rng, n, k):
    y = rng.normal(size=n)
    c = rng.normal(size=k)
    got = _kernels.causal_apply(Series(y), _kernels.Taps(c))
    _assert_within_bound(got, _brute_causal(y, c), y, c, 1e-13)


@pytest.mark.parametrize("n,half", [(16, 3), (10, 12), (31, 8), (5, 40), (1, 3)] + _FFT_TWO_SIDED)
@pytest.mark.parametrize("periodic", [False, True])
def test_two_sided_apply_matches_brute_force(rng, n, half, periodic):
    y = rng.normal(size=n)
    w = rng.normal(size=2 * half + 1)
    apply = _kernels.two_sided_apply_periodic if periodic else _kernels.two_sided_apply_zero
    got = apply(Series(y), _kernels.KernelWindow(w))
    _assert_within_bound(got, _brute_two_sided(y, w, periodic), y, w, 1e-12)


def test_fft_cases_are_above_the_crossover():
    sizes = [min(n, k) for n, k in _FFT_CAUSAL]
    # the zero boundary convolves the series with the weights
    sizes += [min(n, 2 * half + 1) for n, half in _FFT_TWO_SIDED]
    assert min(sizes) >= _kernels.FFT_MIN_SIZE


@pytest.mark.parametrize("taps", [_kernels.FFT_MIN_SIZE - 1, _kernels.FFT_MIN_SIZE])
def test_gl_difference_on_both_sides_of_the_crossover(taps):
    glops._operator_cache.clear()
    y = white_noise(NoiseSpec(seed=taps), 3000)
    c = gl_coefficients(0.4, taps - 1)
    got = gl_difference(y, 0.4, taps - 1).values
    # the operator memoises a spectrum only on the FFT path
    operator = glops._operator_cache[(0.4, taps - 1)]
    assert bool(operator._spectra) == (taps >= _kernels.FFT_MIN_SIZE)
    _assert_within_bound(got, _brute_causal(y.values, c), y.values, c, 1e-13)


# both sides of the crossover, and both sides of 384, from which a product of
# a fresh series and fresh taps beat the direct sum on the crossover grid:
# convolve returns the series' n samples, the first n of the linear product
@pytest.mark.parametrize("short", [_kernels.FFT_MIN_SIZE - 1, _kernels.FFT_MIN_SIZE, 383, 384])
@pytest.mark.parametrize("short_first", [False, True])
def test_convolve_crossover_boundary(rng, monkeypatch, short, short_first):
    long_, short_ = rng.normal(size=2000), rng.normal(size=short)
    y, w = (short_, long_) if short_first else (long_, short_)
    want = np.convolve(y, w)[: y.size]
    direct_calls = _count_direct_calls(monkeypatch)
    got = _kernels.convolve(Series(y), _kernels.Taps(w))
    assert got.shape == want.shape
    if short < _kernels.FFT_MIN_SIZE:
        assert len(direct_calls) == 1
        assert np.array_equal(got, want)
    else:
        assert direct_calls == []
        assert np.abs(got - want).max() <= 1e-13 * np.abs(w).sum() * np.abs(y).max()


# The crossover Taps once had alone is now every product's: on both sides of
# it, and at 383, where plain weights took the direct sum until they shared
# it, kept Taps take a throwaway kernel's route and give its bits, on a
# spectrum miss and a hit alike.
@pytest.mark.parametrize("short", [_kernels.FFT_MIN_SIZE - 1, _kernels.FFT_MIN_SIZE, 383])
@pytest.mark.parametrize("taps_short", [False, True])
def test_taps_have_their_own_crossover(rng, monkeypatch, short, taps_short):
    long_, short_ = rng.normal(size=2000), rng.normal(size=short)
    y, w = (long_, short_) if taps_short else (short_, long_)
    taps = _kernels.Taps(w)
    direct_calls = _count_direct_calls(monkeypatch)
    got, miss, hit = (_kernels.convolve(Series(y), op) for op in (_kernels.Taps(w), taps, taps))
    fft = short >= _kernels.FFT_MIN_SIZE
    assert len(direct_calls) == (0 if fft else 3)
    assert bool(taps._spectra) == fft
    assert np.array_equal(miss, got) and np.array_equal(hit, got)


def _count_direct_calls(monkeypatch):
    """Record each call of the direct sum, np.convolve, made by _kernels."""
    direct_calls = []
    real_convolve = np.convolve

    def counting_convolve(*args):
        direct_calls.append(args)
        return real_convolve(*args)

    monkeypatch.setattr(_kernels.np, "convolve", counting_convolve)
    return direct_calls


def test_fft_length_is_smallest_5_smooth():
    def smooth(x):
        for p in (2, 3, 5):
            while x % p == 0:
                x //= p
        return x == 1

    lengths = [_kernels._fft_length(t) for t in range(1, 3000)]
    assert lengths == [next(s for s in range(t, 2 * t + 1) if smooth(s)) for t in range(1, 3000)]


def test_causal_apply_strips_exact_trailing_zeros(monkeypatch):
    # the GL operator holds its coefficients without their exact trailing
    # zeros: order 2 sums three taps at truncation 4999, and order 0 one
    glops._operator_cache.clear()
    y = white_noise(NoiseSpec(seed=3), 5000)
    seen = []
    real_convolve = _kernels.convolve

    def recording_convolve(a, b, *window):
        seen.append(len(b))
        return real_convolve(a, b, *window)

    monkeypatch.setattr(_kernels, "convolve", recording_convolve)
    got = gl_difference(y, 2.0, 4999).values
    assert seen == [3]
    assert np.array_equal(got, np.convolve(y.values, [1.0, -2.0, 1.0])[:5000])
    assert np.array_equal(gl_difference(y, 0.0, 4999).values, y.values)
    assert seen == [3, 1]


@pytest.mark.parametrize(
    "values,message",
    [
        ([], "series must contain at least one sample"),
        (np.ones((2, 2)), "series must contain at least one sample"),
        ([1.0, np.inf], _kernels._RESULT_NOT_FINITE),
    ],
)
def test_with_values_reports_only_overflow_as_a_result_error(values, message):
    # a shape error keeps Series' own message; only non-finite values are an
    # operator's overflow
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Series(np.ones(3)).with_values(values)


@pytest.mark.parametrize("p", [1, 2, 5])
def test_ar_recurse_matches_brute_force(rng, p):
    x = rng.normal(size=40)
    phi = rng.normal(size=p) * 0.3
    assert np.allclose(_kernels.ar_recurse(Series(x), phi).values, _brute_ar(x, phi), atol=1e-12)


# The circular route.  Every periodic sum is one length-n product, at any n
# and window length; the kernel's spectrum it memoises at n shows it (the
# causal and zero boundaries transform at n plus the last lag at least).
_MIN = _kernels.FFT_MIN_SIZE
_periodic = _kernels.two_sided_apply_periodic
_Window = _kernels.KernelWindow


def _took_circular(kernel, n):
    return n in kernel._spectra


def _odd(taps):
    """The odd window length at or above ``taps``: a two-sided case of an
    even number of weights takes one more."""
    return taps | 1


def _record_transforms(monkeypatch):
    """Lists that collect the length of every ``np.fft.rfft`` and
    ``np.fft.irfft`` call until ``monkeypatch.undo()``."""
    rffts, irffts = [], []
    real_rfft, real_irfft = np.fft.rfft, np.fft.irfft

    def recording_rfft(a, n=None, *args, **kwargs):
        rffts.append(np.shape(a)[-1] if n is None else n)
        return real_rfft(a, n, *args, **kwargs)

    def recording_irfft(a, n=None, *args, **kwargs):
        irffts.append(n)
        return real_irfft(a, n, *args, **kwargs)

    monkeypatch.setattr(_kernels.np.fft, "rfft", recording_rfft)
    monkeypatch.setattr(_kernels.np.fft, "irfft", recording_irfft)
    return rffts, irffts


@pytest.mark.parametrize(
    "n,taps,was_circular",
    [
        # the sizes on both sides of each choice the periodic boundary used to
        # make, named by the route it took (wrap-padded when False)
        # 5-smooth against not
        (4096, 513, True), (4099, 513, False), (1000, 225, True), (1009, 225, False),
        # one tap below the former crossover against at it
        (4096, _MIN - 1, False), (4096, _MIN, True),
        # a half-width beyond the series length
        (100, 601, True),
    ],
)
def test_circular_route_on_both_sides_of_each_choice(n, taps, was_circular):
    rng = np.random.default_rng(n + taps)
    y = Series(rng.normal(size=n))
    w = _Window(rng.normal(size=_odd(taps)))
    got = _periodic(y, w)
    assert _took_circular(w, n)
    assert got.shape == (n,)
    _assert_within_bound(got, _brute_two_sided(y.values, w.weights, True), y.values, w.weights,
                         1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 300, 4097, 4099])
# odd and even lengths on both sides of the crossover, and 2n + 2 weights,
# which reach beyond the series
@pytest.mark.parametrize("taps", [1, 2, 7, 8, _MIN - 1, _MIN, "2n + 2"])
@pytest.mark.parametrize("kept_series", [False, True])
@pytest.mark.parametrize("kept_taps", [False, True])
def test_periodic_is_one_length_n_product(monkeypatch, n, taps, kept_series, kept_taps):
    # kept causal Taps are summed at lags 0..taps - 1; otherwise each call
    # takes a new centred window, which has an odd length of at least 3, and
    # a series that is not kept is new on each call too
    taps = 2 * n + 2 if taps == "2n + 2" else taps
    rng = np.random.default_rng(n * 1000 + taps)
    values, weights = rng.normal(size=n), rng.normal(size=taps)
    kept = (Series(values), _kernels.Taps(weights))

    def operands():
        return (kept[0] if kept_series else Series(values),
                kept[1] if kept_taps else _Window(weights))

    if not kept_taps and (taps < 3 or taps % 2 == 0):
        with pytest.raises(ValueError, match="odd length >= 3"):
            operands()
        return
    rffts, irffts = _record_transforms(monkeypatch)
    got = _periodic(*operands())
    first = (list(rffts), list(irffts))
    again = _periodic(*operands())
    monkeypatch.undo()
    # the series' centred rfft and the weights' folded rfft, then one irfft,
    # all at n; a second call transforms only the operands without a memo
    assert first == ([n, n], [n])
    assert rffts[2:] == [n] * ((not kept_series) + (not kept_taps))
    assert irffts == [n, n]
    assert np.array_equal(again, got)
    assert got.shape == (n,)
    want = _brute_two_sided(values, weights, True, 0 if kept_taps else None)
    _assert_within_bound(got, want, values, weights, 1e-12)


@pytest.mark.parametrize("n,taps", [(50, 8), (1000, 300)])
def test_zero_boundary_takes_kernels_at_their_own_lags(n, taps):
    # causal Taps are summed at lags 0..taps - 1 on the direct and the FFT
    # path alike
    rng = np.random.default_rng(n)
    y, w = rng.normal(size=n), rng.normal(size=taps)
    got = _kernels.two_sided_apply_zero(Series(y), _kernels.Taps(w))
    _assert_within_bound(got, _brute_two_sided(y, w, False, 0), y, w, 1e-12)
    assert np.array_equal(got, _kernels.causal_apply(Series(y), _kernels.Taps(w)))


def test_call_order_on_one_series_gives_the_same_bits():
    rng = np.random.default_rng(3)
    values = rng.normal(size=4096)
    window = _Window(rng.normal(size=2 * 128 + 1))
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
    y, w = Series(values), _Window(weights)
    miss = _periodic(y, w)  # both memos empty
    spectrum = y.rfft()
    assert _took_circular(w, 4096) and not spectrum.flags.writeable
    results = [
        _periodic(y, w),  # both hit
        _periodic(y, _Window(weights)),  # the series' memo hits, the operator's misses
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

    want = steps(Series(values), _Window(weights))
    y, w = Series(values), _Window(weights)
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


@pytest.mark.parametrize("n", [4096, 4099])
@pytest.mark.parametrize("taps", [_MIN - 1, _MIN])
@pytest.mark.parametrize("kind", ["causal", "zero", "periodic"])
def test_arrays_and_series_take_one_route(kind, taps, n):
    # the routes read sizes only: a series and a kernel (causal Taps or a
    # centred window) give the same bits on a memo miss and a hit, and with
    # either operand new
    rng = np.random.default_rng(n + taps)
    causal = kind == "causal"
    values, weights = rng.normal(size=n), rng.normal(size=taps if causal else _odd(taps))
    apply = {"causal": _kernels.causal_apply, "zero": _kernels.two_sided_apply_zero,
             "periodic": _periodic}[kind]
    kernel = _kernels.Taps if causal else _Window
    y, w = Series(values), kernel(weights)
    want = apply(y, w)
    outputs = [apply(y, w), apply(Series(values), w), apply(y, kernel(weights))]
    assert all(np.array_equal(got, want) for got in outputs)
    assert _took_circular(w, n) == (kind == "periodic")
    brute = _brute_causal(values, weights) if kind == "causal" else _brute_two_sided(
        values, weights, kind == "periodic")
    _assert_within_bound(want, brute, values, weights, 1e-12)


# The output window.  The causal and zero boundaries keep the times 0..n - 1
# of the product, and the FFT path transforms at the 5-smooth length from
# the shortest at which no wrapped sum lands in them: n + the last lag, n + M
# for causal Taps of M + 1 weights and n + half for a centred window of
# 2 half + 1.  A periodic sum transforms at n, on both sides of the
# crossover.


@pytest.mark.parametrize(
    "n,taps",
    # both sides of the crossover, two lengths above it, and a half-width
    # beyond every n but 4097
    [(n, taps) for n in (5, 300, 1000, 4097)
     for taps in (_kernels.FFT_MIN_SIZE - 1, _kernels.FFT_MIN_SIZE, 383, 384, 1001)]
    # windows alias-free from one past a 5-smooth length, 1281 for the causal
    # sum and 1201 for the zero boundary, where a length one
    # sample short would transform at 1280 or 1200 and wrap into the window
    + [(1000, 282), (1000, 403)],
)
@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("kind", ["causal", "zero", "periodic"])
def test_output_window_matches_brute_force(monkeypatch, n, taps, warm, kind):
    # two-sided kinds take a centred KernelWindow; a warm call finds both
    # operands' spectra memoised by an earlier one and transforms nothing
    causal = kind == "causal"
    taps = taps if causal else _odd(taps)
    rng = np.random.default_rng(n * taps)
    values, w = rng.normal(size=n), rng.normal(size=taps)
    y, kernel = Series(values), (_kernels.Taps if causal else _Window)(w)
    apply = {"causal": _kernels.causal_apply, "zero": _kernels.two_sided_apply_zero,
             "periodic": _periodic}[kind]
    if warm:
        apply(y, kernel)
    sizes, _ = _record_transforms(monkeypatch)
    got = apply(y, kernel)
    monkeypatch.undo()
    want = (_brute_causal(values, w) if causal
            else _brute_two_sided(values, w, kind == "periodic"))
    assert got.shape == (n,)
    _assert_within_bound(got, want, values, w, 1e-12)
    if warm:
        assert sizes == []
    elif kind == "periodic":
        assert sizes == [n, n]
    else:
        fft = min(n, taps) >= _kernels.FFT_MIN_SIZE
        size = _kernels._fft_length(n + (taps - 1 if causal else taps // 2))
        assert sizes == ([size, size] if fft else [])


# The series' padded-spectrum memo, which GL differences and zero-boundary
# exact differences of a Series read.
def test_series_spectrum_memo_is_read_only_and_hits_match_misses():
    rng = np.random.default_rng(13)
    values, w = rng.normal(size=3000) + 5.0, _kernels.Taps(rng.normal(size=301))
    y = Series(values)
    miss = _kernels.causal_apply(y, w)
    size = _kernels._fft_length(3000 + 300)
    spectrum = y.spectrum(size)
    assert list(y._spectra) == [size]
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 0.0
    assert np.array_equal(spectrum, np.fft.rfft(values, size))
    hit = _kernels.causal_apply(y, w)
    assert y.spectrum(size) is spectrum
    assert np.array_equal(hit, miss)
    assert np.array_equal(_kernels.causal_apply(Series(values), w), miss)
    # the zero boundary of a 601-weight window keeps a window at the same length
    window = _Window(rng.normal(size=601))
    zero = _kernels.two_sided_apply_zero(y, window)
    assert list(y._spectra) == [size]
    assert np.array_equal(zero, _kernels.two_sided_apply_zero(Series(values), window))


def _memo_lengths(n):
    """Taps lengths whose causal sums with an n-sample series need more
    distinct FFT lengths than the memo keeps."""
    lengths = [_kernels.FFT_MIN_SIZE + 97 * i for i in range(3 * _kernels.CACHE_BOUND)]
    sizes = [_kernels._fft_length(n + m - 1) for m in lengths]
    assert len(set(sizes)) > 2 * _kernels.CACHE_BOUND
    return lengths, sizes


def test_series_spectrum_memo_is_bounded():
    rng = np.random.default_rng(17)
    y = Series(rng.normal(size=2000))
    y.rfft()
    lengths, sizes = _memo_lengths(2000)
    for m in lengths:
        _kernels.causal_apply(y, _kernels.Taps(rng.normal(size=m)))
    # the newest lengths stay; the length-n transform went with the oldest
    assert list(y._spectra) == list(dict.fromkeys(sizes))[-_kernels.CACHE_BOUND :]


def test_threads_sharing_one_series_spectrum_memo_agree():
    # more threads than cores, each running causal sums at more FFT lengths
    # than the memo keeps on one shared series, with a short switch interval
    # so lookups, inserts and evictions interleave
    rng = np.random.default_rng(19)
    values = rng.normal(size=2000)
    lengths, _ = _memo_lengths(2000)
    operators = [_kernels.Taps(rng.normal(size=m)) for m in lengths]
    want = [_kernels.causal_apply(Series(values), w) for w in operators]
    y = Series(values)
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers

    def work(slot):
        start.wait()
        order = list(range(slot, len(operators))) + list(range(slot))
        results[slot] = [(i, _kernels.causal_apply(y, operators[i])) for i in order * 2]

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
        assert len(got) == 2 * len(operators)
        assert all(np.array_equal(out, want[i]) for i, out in got)
    assert len(y._spectra) == _kernels.CACHE_BOUND
    for size, spectrum in y._spectra.items():
        assert np.array_equal(spectrum, np.fft.rfft(values, size))


def test_gl_and_zero_difference_share_one_transform_of_the_series(monkeypatch):
    # a GL difference of 257 taps and a zero-boundary exact difference of
    # half-width 256 keep windows that are alias-free at one length, 4374
    y = white_noise(NoiseSpec(seed=21), 4096)
    window = exact_kernel_window(0.5, 256)
    calls = []
    real_rfft = np.fft.rfft

    def counting_rfft(a, *args, **kwargs):
        if np.shares_memory(a, y.values):
            calls.append(args)
        return real_rfft(a, *args, **kwargs)

    monkeypatch.setattr(_kernels.np.fft, "rfft", counting_rfft)
    gl_difference(y, 0.4, 256)
    exact_difference(y, window, "zero")
    assert calls == [(4374,)]
