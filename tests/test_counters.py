"""The one counter type (:class:`repro.utils.counters.Counters`) and the
keyed LRU both caches are built on."""

from __future__ import annotations

import threading

import pytest

from repro.utils.counters import Counters, KeyedLRU


class TestCounters:
    def test_merge_is_additive(self):
        table = Counters(("a", "b"))
        table.add("a")
        table.merge({"a": 2, "b": 5})
        table.merge({"b": 1})
        assert table.snapshot() == {"a": 3, "b": 6}

    def test_snapshot_is_a_copy_in_construction_order(self):
        table = Counters(("z", "a"))
        snapshot = table.snapshot()
        snapshot["z"] = 99
        table.add("a", 4)
        assert list(table.snapshot()) == ["z", "a"]
        assert table.snapshot() == {"z": 0, "a": 4}
        assert snapshot == {"z": 99, "a": 0}

    def test_reset_zeroes_only_its_own_table(self):
        one, other = Counters(("a",)), Counters(("a",))
        one.add("a", 2)
        other.add("a", 3)
        one.reset()
        assert one.snapshot() == {"a": 0}
        assert other.snapshot() == {"a": 3}

    def test_bad_delta_is_rejected_whole(self):
        table = Counters(("a", "b"))
        with pytest.raises(ValueError):
            table.merge({"a": 1, "b": -1})
        with pytest.raises(KeyError):
            table.merge({"a": 1, "c": 1})
        with pytest.raises(KeyError):
            table.add("c")
        assert table.snapshot() == {"a": 0, "b": 0}

    def test_concurrent_adds_are_exact(self):
        table = Counters(("n",))

        def work():
            for _ in range(2000):
                table.add("n")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert table.snapshot() == {"n": 8000}


class TestKeyedLRU:
    """Eviction, the byte bound and thread pressure are tested through both
    caches in ``test_service.py``; this pins the build race itself."""

    def test_first_insert_wins_a_build_race(self):
        cache = KeyedLRU(4)
        inner = {}

        def racing_build():
            # Another caller fills the key while this build runs.
            inner["value"] = cache.get_or_build("k", lambda: "first")[0]
            return "second"

        assert cache.get_or_build("k", racing_build) == ("first", False)
        assert inner["value"] == "first"
        assert cache.counters.snapshot() == {"hits": 0, "misses": 2, "evictions": 0}
