"""The one weight spectrum a kernel window memoises by size, which
``_kernels.convolve``, the circular periodic product and the response fold
read: the outputs it gives are bit-identical to transforming the weights on
every call, the memo is read-only and bounded, it goes with the window
cache, and one window can be shared between threads."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fracspec import NoiseSpec, Series, exact_difference, exact_kernel_window, white_noise
from fracspec import _kernels, exactops


def _window_spectrum(w, size):
    """Reference ``KernelWindow.spectrum``: the weights, at lags -half..half,
    summed by lag mod ``size``, then transformed; recomputed per call."""
    half = (w.size - 1) // 2
    return np.fft.rfft(np.bincount(np.arange(-half, half + 1) % size, weights=w, minlength=size))


def _series_rfft(y):
    """Reference ``Series.rfft()``: the transform of the mean-removed values
    with bin 0 set to their sum, recomputed per call."""
    spectrum = np.fft.rfft(y - y.mean())
    spectrum[0] = y.sum()
    return spectrum


def _recomputed(y, w, boundary):
    """Reference exact difference of a series on the route ``_kernels`` takes,
    transforming the series and the weights on every call.  A zero-boundary
    difference on the FFT path is the circular product at the smallest
    5-smooth length from n + half, which keeps the times 0..n - 1 free of
    wrapped sums; every periodic difference is the circular product at n,
    whether the series is an array or a ``Series``."""
    n, half = y.size, (w.size - 1) // 2
    if boundary == "periodic":
        return np.fft.irfft(_series_rfft(y) * _window_spectrum(w, n), n)
    if min(n, w.size) < _kernels.FFT_MIN_SIZE:
        return np.convolve(y, w)[half : half + n]
    size = _kernels._fft_length(n + half)
    return np.fft.irfft(np.fft.rfft(y, size) * _window_spectrum(w, size), size)[:n]


def _fresh_window(order, half_width):
    exactops._window_cache.clear()
    return exact_kernel_window(order, half_width)


# half-widths whose windows are the longest below FFT_MIN_SIZE and the
# shortest at or above it
_BELOW = (_kernels.FFT_MIN_SIZE - 2) // 2
_ABOVE = _BELOW + 1


# (n, half): direct sums (window below FFT_MIN_SIZE), FFT products, among
# them windows of 383 and 385 weights, and a half-width beyond the series
# length on both paths.  Periodic differences take the circular route at
# every n and half-width, so their memo holds the spectrum at n only.
@pytest.mark.parametrize(
    "n,half",
    [(1000, 100), (1000, _BELOW), (1000, _ABOVE), (1000, 191), (1000, 192), (4096, 256),
     (150, 400), (20, 30)],
)
@pytest.mark.parametrize("boundary", ["zero", "periodic"])
def test_outputs_bit_identical_to_recomputed_spectra(n, half, boundary):
    window = _fresh_window(0.5, half)
    y = white_noise(NoiseSpec(seed=n + half), n)
    want = _recomputed(y.values, window.weights, boundary)
    first = exact_difference(y, window, boundary).values
    memo = dict(window._spectra)
    second = exact_difference(y, window, boundary).values  # memo hit on the FFT path
    assert np.array_equal(first, want)
    assert np.array_equal(second, want)
    assert window._spectra.keys() == memo.keys()
    assert all(window._spectra[k] is memo[k] for k in memo)
    if boundary == "periodic":
        assert list(memo) == [n]
    else:
        assert bool(memo) == (min(n, 2 * half + 1) >= _kernels.FFT_MIN_SIZE)


def test_memoised_spectra_are_read_only():
    window = _fresh_window(0.3, 300)
    spectrum = window.spectrum(2048)
    assert np.array_equal(spectrum, _window_spectrum(window.weights, 2048))
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 0.0
    assert window.spectrum(2048) is spectrum


def test_memo_is_bounded_over_many_lengths():
    window = _fresh_window(0.7, 256)
    lengths = [400 + 97 * i for i in range(50)]
    sizes = [_kernels._fft_length(n + 256) for n in lengths]
    assert len(set(sizes)) > 2 * _kernels.CACHE_BOUND
    # the stated bound: a full memo of the largest spectra, plus 64 KiB
    largest = (max(sizes) // 2 + 1) * 16
    bound = _kernels.CACHE_BOUND * largest + 64 * 1024
    y = white_noise(NoiseSpec(seed=5), max(lengths)).values
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in lengths:
            _kernels.two_sided_apply_zero(y[:n], window)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the memo keeps the most recent lengths, dropping the oldest
    assert list(window._spectra) == list(dict.fromkeys(sizes))[-_kernels.CACHE_BOUND :]
    # unbounded, the 50 spectra would hold about 1 MB
    assert grown <= bound


def test_cleared_window_cache_builds_cold():
    window = _fresh_window(0.5, 256)
    y = white_noise(NoiseSpec(seed=1), 4096)
    exact_difference(y, window, "zero")
    assert window._spectra
    exactops._window_cache.clear()
    again = exact_kernel_window(0.5, 256)
    assert again is not window
    assert not again._spectra
    assert np.array_equal(exact_difference(y, again, "zero").values,
                          exact_difference(y, window, "zero").values)


def test_threads_sharing_a_window_agree():
    # more threads than cores and more lengths than the memo keeps, with a
    # short switch interval, so lookups, inserts and evictions interleave;
    # the threads share each length's series, so its spectrum memo races too
    window = _fresh_window(0.5, 300)
    lengths = [700 + 200 * i for i in range(_kernels.CACHE_BOUND + 4)]
    y = white_noise(NoiseSpec(seed=9), max(lengths)).values
    series = {n: Series(y[:n]) for n in lengths}
    want = {n: _recomputed(y[:n], window.weights, "periodic") for n in lengths}
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers

    def work(slot):
        start.wait()
        order = (lengths[slot:] + lengths[:slot]) * 3
        results[slot] = [(n, _kernels.two_sided_apply_periodic(series[n], window))
                         for n in order]

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
        assert len(got) == 3 * len(lengths)
        assert all(np.array_equal(out, want[n]) for n, out in got)
    assert len(window._spectra) == _kernels.CACHE_BOUND
    for size, spectrum in window._spectra.items():
        assert np.array_equal(spectrum, _window_spectrum(window.weights, size))
