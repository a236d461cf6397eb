"""Unit tests for the shared LRU cache used across the crawl hot paths."""

from repro.core.caching import LRUCache


class TestLRUCache:
    def test_get_put_and_lru_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)           # evicts "b" (least recently used)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2
        assert cache.hits == 3 and cache.misses == 1

    def test_put_replaces_and_refreshes(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # replace refreshes recency
        cache.put("c", 3)   # evicts "b"
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_membership_and_iteration_do_not_refresh_or_count(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache and "z" not in cache
        assert list(cache) == ["a", "b"]
        assert cache.hits == 0 and cache.misses == 0
        cache.put("c", 3)  # "a" was not refreshed -> evicted
        assert list(cache) == ["b", "c"]

    def test_clear(self):
        cache = LRUCache(4)
        cache.put(1, "x")
        cache.clear()
        assert len(cache) == 0
