"""The one bounded get-or-build cache behind exact windows, GL operators and
the spectra of every ``Taps``."""

import threading

from fracspec import _kernels, exactops, glops
from fracspec._kernels import CACHE_BOUND, BoundedCache


def test_the_operator_caches_are_bounded_caches():
    taps = _kernels.Taps([1.0, 2.0])
    for cache in (exactops._window_cache, glops._operator_cache, taps._spectra):
        assert isinstance(cache, BoundedCache)


def test_the_oldest_entry_goes_at_the_bound():
    cache = BoundedCache()
    keys = list(range(CACHE_BOUND + 2))
    for k in keys:
        assert cache.get_or_build(k, lambda k=k: str(k)) == str(k)
    assert list(cache) == keys[2:]
    # a hit does not renew an entry: eviction follows build order
    oldest = cache.get_or_build(keys[2], lambda: "rebuilt")
    assert oldest == str(keys[2])
    cache.get_or_build("new", lambda: "new")
    assert list(cache) == keys[3:] + ["new"]
    assert len(cache) == CACHE_BOUND


def test_racing_builders_all_receive_the_first_stored_value():
    cache = BoundedCache()
    workers = 4
    # every builder waits for all the others, which only works if no build
    # holds the lock
    building = threading.Barrier(workers, timeout=30)
    built, got = [], [None] * workers

    def build():
        value = object()
        built.append(value)
        building.wait()
        return value

    def work(slot):
        got[slot] = cache.get_or_build("key", build)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(built) == workers
    assert cache["key"] in built
    assert all(value is cache["key"] for value in got)


def test_a_slow_build_does_not_block_hits_on_another_key():
    cache = BoundedCache()
    cache.get_or_build("warm", lambda: "hit")
    started, release = threading.Event(), threading.Event()

    def slow():
        started.set()
        release.wait(timeout=60)
        return "slow"

    builder = threading.Thread(target=lambda: cache.get_or_build("cold", slow))
    builder.start()
    try:
        assert started.wait(timeout=30)
        hits = []
        reader = threading.Thread(
            target=lambda: hits.append(cache.get_or_build("warm", lambda: "miss")))
        reader.start()
        reader.join(timeout=30)
        assert hits == ["hit"]
    finally:
        release.set()
        builder.join(timeout=60)
    assert cache["cold"] == "slow"


def test_clear_empties_the_cache():
    cache = BoundedCache()
    for k in range(3):
        cache.get_or_build(k, lambda: "first")
    cache.clear()
    assert len(cache) == 0 and list(cache) == []
    assert cache.get_or_build(0, lambda: "again") == "again"
