"""Brute-force index-convention oracles for the hot kernels: each kernel is
checked against a plain double loop written straight from its definition."""

import numpy as np
import pytest

from fracspec import _kernels


def _brute_causal(y, c):
    n, k = len(y), len(c)
    out = np.zeros(n)
    for t in range(n):
        for m in range(min(t + 1, k)):
            out[t] += c[m] * y[t - m]
    return out


def _brute_two_sided(y, w, periodic):
    n = len(y)
    half = (len(w) - 1) // 2
    out = np.zeros(n)
    for t in range(n):
        for m in range(-half, half + 1):
            i = t - m
            if periodic:
                out[t] += w[m + half] * y[i % n]
            elif 0 <= i < n:
                out[t] += w[m + half] * y[i]
    return out


def _brute_ar(x, phi):
    out = np.zeros(len(x))
    for t in range(len(x)):
        out[t] = x[t] + sum(
            phi[i] * out[t - 1 - i] for i in range(len(phi)) if t - 1 - i >= 0
        )
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.mark.parametrize("n,k", [(16, 4), (7, 12), (33, 33), (1, 5), (5, 1)])
def test_causal_apply_matches_brute_force(rng, n, k):
    y = rng.normal(size=n)
    c = rng.normal(size=k)
    assert np.allclose(_kernels.causal_apply(y, c), _brute_causal(y, c), atol=1e-13)


@pytest.mark.parametrize("n,half", [(16, 3), (10, 12), (31, 8), (5, 40), (1, 3)])
@pytest.mark.parametrize("periodic", [False, True])
def test_two_sided_apply_matches_brute_force(rng, n, half, periodic):
    y = rng.normal(size=n)
    w = rng.normal(size=2 * half + 1)
    if periodic:
        got = _kernels.two_sided_apply_periodic(y, w)
    else:
        got = _kernels.two_sided_apply_zero(y, w)
    assert np.allclose(got, _brute_two_sided(y, w, periodic), atol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 5])
def test_ar_recurse_matches_brute_force(rng, p):
    x = rng.normal(size=40)
    phi = rng.normal(size=p) * 0.3
    assert np.allclose(_kernels.ar_recurse(x, phi), _brute_ar(x, phi), atol=1e-12)

