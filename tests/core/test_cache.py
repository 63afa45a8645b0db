"""Unit tests for the bounded LRU cache (``repro.core.cache``)."""

import threading

import pytest

from repro.core.cache import MISS, LRUCache


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("k") is MISS
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_falsy_values_are_cacheable(self):
        cache = LRUCache()
        cache.put("none", None)
        cache.put("zero", 0)
        assert cache.get("none") is None
        assert cache.get("zero") == 0

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refresh 'a'
        cache.put("c", 3)                   # evicts 'b'
        assert cache.get("b") is MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_clear(self):
        cache = LRUCache()
        cache.put("a", 1)
        cache.clear()
        assert cache.get("a") is MISS

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_concurrent_put_get_is_safe(self):
        cache = LRUCache(maxsize=64)

        def worker(offset):
            for i in range(200):
                cache.put((offset, i % 50), i)
                cache.get((offset, (i * 7) % 50))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 64

    def test_stats_snapshot(self):
        cache = LRUCache()
        cache.put("k", "v")
        cache.get("k")
        cache.get("missing")
        snap = cache.stats.snapshot()
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        assert 0.0 < snap["hit_rate"] < 1.0
