"""The GL operator cache behind ``gl_difference`` and ``simulate_arfima``:
outputs on a hit are bit-identical to outputs on a miss, the key is the
exact (order, truncation), the cache is bounded and thread-safe, what it
returns is read-only, and an integer order stays a short direct sum."""

import sys
import threading

import numpy as np
import pytest

from fracspec import (
    ArfimaSpec,
    NoiseSpec,
    gl_coefficients,
    gl_difference,
    simulate_arfima,
    white_noise,
)
from fracspec import _kernels, glops


def _recomputed(y, coeffs):
    """Reference causal GL difference that transforms the coefficients on
    every FFT-path call."""
    if min(y.size, coeffs.size) < _kernels.TAPS_FFT_MIN_SIZE:
        return np.convolve(y, coeffs)[: y.size]
    size = _kernels._fft_length(y.size + coeffs.size - 1)
    return np.fft.irfft(np.fft.rfft(y, size) * np.fft.rfft(coeffs, size), size)[: y.size]


# (n, truncation): direct sums, FFT products on both sides of the crossover's
# short side, and a truncation beyond the series length
@pytest.mark.parametrize("n,truncation", [(1000, 64), (4096, 256), (300, 2000), (5000, 4096)])
def test_outputs_on_a_hit_are_bit_identical_to_a_miss(n, truncation):
    glops._operator_cache.clear()
    y = white_noise(NoiseSpec(seed=n + truncation), n)
    miss = gl_difference(y, 0.4, truncation).values
    operator = glops._operator_cache[(0.4, truncation)]
    memo = dict(operator._spectra)
    hit = gl_difference(y, 0.4, truncation).values
    assert glops._operator_cache[(0.4, truncation)] is operator
    assert np.array_equal(miss, _recomputed(y.values, gl_coefficients(0.4, truncation)))
    assert np.array_equal(hit, miss)
    assert operator._spectra.keys() == memo.keys()
    assert all(operator._spectra[k] is memo[k] for k in memo)
    assert bool(memo) == (min(n, truncation + 1) >= _kernels.TAPS_FFT_MIN_SIZE)


def test_simulation_on_a_hit_is_bit_identical_to_a_miss():
    spec = ArfimaSpec(d=0.3, n=3000, truncation=1000)
    glops._operator_cache.clear()
    miss = simulate_arfima(spec, NoiseSpec(seed=4)).values
    assert list(glops._operator_cache) == [(-0.3, 1000)]
    hit = simulate_arfima(spec, NoiseSpec(seed=4)).values
    psi = gl_coefficients(-0.3, 1000)
    assert np.array_equal(miss, _recomputed(white_noise(NoiseSpec(seed=4), 3000).values, psi))
    assert np.array_equal(hit, miss)


def test_operator_cache_keys_the_exact_order():
    glops._operator_cache.clear()
    near = np.nextafter(0.4, 1.0)
    y = white_noise(NoiseSpec(seed=3), 2048)
    a = gl_difference(y, near, 300).values
    b = gl_difference(y, 0.4, 300).values
    assert list(glops._operator_cache) == [(near, 300), (0.4, 300)]
    first, second = glops._operator_cache.values()
    assert first is not second
    assert np.array_equal(first.weights, gl_coefficients(near, 300))
    assert np.array_equal(second.weights, gl_coefficients(0.4, 300))
    assert not np.array_equal(a, b)


def test_operator_cache_keeps_the_newest_operators():
    glops._operator_cache.clear()
    orders = [0.3 + 0.01 * k for k in range(_kernels.CACHE_BOUND + 3)]
    y = white_noise(NoiseSpec(seed=6), 512)
    for a in orders:
        gl_difference(y, a, 200)
    assert list(glops._operator_cache) == [(a, 200) for a in orders[3:]]
    newest = glops._operator_cache[(orders[-1], 200)]
    gl_difference(y, orders[-1], 200)
    assert glops._operator_cache[(orders[-1], 200)] is newest
    gl_difference(y, orders[0], 200)
    assert list(glops._operator_cache)[-1] == (orders[0], 200)
    assert len(glops._operator_cache) == _kernels.CACHE_BOUND


def test_threads_building_more_operators_than_the_cache_keeps():
    # more threads than cores, more keys than the cache keeps and FFT-path
    # sizes, with a short switch interval, so lookups, builds, evictions and
    # spectrum memos interleave
    orders = [0.3 + 0.01 * k for k in range(_kernels.CACHE_BOUND + 3)]
    y = white_noise(NoiseSpec(seed=9), 2000)
    want = {a: _recomputed(y.values, gl_coefficients(a, 400)) for a in orders}
    glops._operator_cache.clear()
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers

    def work(slot):
        start.wait()
        results[slot] = [(a, gl_difference(y, a, 400).values)
                         for a in (orders[slot:] + orders[:slot]) * 3]

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
    assert len(glops._operator_cache) == _kernels.CACHE_BOUND
    for got in results:
        assert len(got) == 3 * len(orders)
        assert all(np.array_equal(out, want[a]) for a, out in got)


def test_operator_arrays_are_read_only():
    glops._operator_cache.clear()
    y = white_noise(NoiseSpec(seed=2), 4096)
    gl_difference(y, 0.4, 256)
    operator = glops._operator_cache[(0.4, 256)]
    assert len(operator) == 257
    (spectrum,) = operator._spectra.values()
    for a in (operator.weights, spectrum, gl_coefficients(0.4, 256)):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("order,taps", [(0.0, [1.0]), (1.0, [1.0, -1.0]), (2.0, [1.0, -2.0, 1.0])])
def test_integer_order_convolves_only_its_nonzero_taps_directly(monkeypatch, order, taps):
    glops._operator_cache.clear()
    y = white_noise(NoiseSpec(seed=8), 5000)
    direct = []
    real_convolve = np.convolve

    def counting_convolve(*args):
        direct.append(len(args[1]))
        return real_convolve(*args)

    monkeypatch.setattr(_kernels.np, "convolve", counting_convolve)
    got = gl_difference(y, order, 5000).values
    assert direct == [len(taps)]
    assert len(glops._operator_cache[(order, 5000)]) == len(taps)
    assert np.array_equal(got, real_convolve(y.values, taps)[:5000])
