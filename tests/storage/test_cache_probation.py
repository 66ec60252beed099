"""ArrayCache's probation segment: one-pass sweeps cannot flush reused arrays."""

import random
import sys
import threading

from repro.storage.cache import PROBATION_SHARE, ArrayCache


class Entry:
    def __init__(self, raw_bytes: int):
        self.raw_bytes = raw_bytes


def load(cache: ArrayCache, key, nbytes: int = 100):
    return cache.get_or_load(key, lambda: ("grid", Entry(nbytes)))


def test_probation_cap_is_a_share_of_the_budget():
    cache = ArrayCache(256 * 2**20)
    assert cache.probation_max_bytes == 256 * 2**20 // PROBATION_SHARE == 32 * 2**20


def test_a_sweep_of_distinct_keys_stays_under_the_probation_cap():
    cache = ArrayCache(8000)
    cap = cache.probation_max_bytes
    for i in range(200):  # 20000 bytes of arrays, each read once
        load(cache, ("sweep", i))
        assert cache.current_bytes == cache.probation_bytes <= cap
    assert cache.current_bytes == cap
    assert cache.stats.get("evictions") == 200 - cap // 100


def test_an_entry_hit_once_survives_a_later_sweep():
    cache = ArrayCache(8000)
    load(cache, "hot")
    load(cache, "hot")  # hit: promoted out of probation
    for i in range(200):
        load(cache, ("sweep", i))
    assert cache.peek("hot") is not None
    assert cache.probation_bytes <= cache.probation_max_bytes
    assert cache.current_bytes == 100 + cache.probation_bytes


def test_an_entry_never_hit_leaves_with_the_sweep():
    cache = ArrayCache(8000)
    load(cache, "once")  # never hit again
    for i in range(200):
        load(cache, ("sweep", i))
    assert cache.peek("once") is None


def test_the_newest_entry_is_admitted_even_above_the_cap():
    cache = ArrayCache(8000)  # probation cap 1000
    load(cache, "small")
    load(cache, "big", nbytes=4000)
    assert cache.peek("big") is not None
    assert cache.peek("small") is None
    assert cache.probation_bytes == cache.current_bytes == 4000


def test_protected_entries_still_obey_the_total_budget():
    cache = ArrayCache(1000)
    for i in range(30):
        load(cache, i)
        load(cache, i)  # every entry is promoted
    assert cache.current_bytes <= 1000
    assert cache.probation_bytes == 0
    assert len(cache) == 10


def test_invalidate_and_clear_keep_probation_consistent():
    cache = ArrayCache(8000)
    load(cache, "a")
    load(cache, "b")
    load(cache, "b")
    assert cache.probation_bytes == 100
    assert cache.invalidate("a")
    assert cache.probation_bytes == 0
    assert cache.invalidate("b")
    assert cache.current_bytes == 0
    load(cache, "c")
    load(cache, "d")
    load(cache, "d")
    cache.clear()
    assert cache.current_bytes == cache.probation_bytes == 0
    assert len(cache) == 0
    # Reloading after a clear starts on probation again.
    for i in range(20):
        load(cache, ("sweep", i))
    assert cache.current_bytes == cache.probation_bytes <= cache.probation_max_bytes


def test_bookkeeping_survives_concurrent_use():
    cache = ArrayCache(5000)  # probation cap 625: evictions on every path
    errors = []

    def worker(seed: int):
        rng = random.Random(seed)
        try:
            for _ in range(400):
                key = rng.randrange(40)
                op = rng.random()
                if op < 0.9:
                    load(cache, key, nbytes=rng.choice((100, 300, 700)))
                elif op < 0.98:
                    cache.invalidate(key)
                else:
                    cache.clear()
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    entries = cache._entries
    assert cache.current_bytes == sum(n for _, n in entries.values())
    assert set(cache._probation) <= set(entries)
    assert cache.probation_bytes == sum(entries[k][1] for k in cache._probation)
    assert cache.current_bytes <= cache.max_bytes
