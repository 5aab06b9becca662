"""The cross-process spill lock: mutual exclusion, staleness, degradation.

Two workers sharing one ``--cache-dir`` both run read→union→write on a
provider's query-cache entry when they spill; the ``O_EXCL`` lock file
serializes those merges.  These tests pin the lock's contract (exclusive,
self-cleaning, stale-breaking, best-effort under timeout) and then the
actual regression: concurrent ``dump_caches`` of the *same* fingerprint
from two sessions warming different queries must union, not clobber.
"""

import threading
import time

import pytest

from repro.api import DiscoveryRequest, Profiler
from repro.relational.relation import Relation
from repro.serve import CacheStore
from repro.serve import store as store_format

ATTRIBUTES = ["CC", "AC", "PN", "NM", "STR", "CT", "ZIP"]
ROWS = [
    ("01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"),
    ("01", "908", "1111111", "Rick", "Tree Ave.", "MH", "07974"),
    ("01", "212", "2222222", "Joe", "5th Ave", "NYC", "01202"),
    ("01", "908", "2222222", "Jim", "Elm Str.", "MH", "07974"),
    ("44", "131", "3333333", "Ben", "High St.", "EDI", "EH4 1DT"),
    ("44", "131", "4444444", "Ian", "High St.", "EDI", "EH4 1DT"),
    ("44", "908", "4444444", "Ian", "Port PI", "MH", "W1B 1JH"),
    ("01", "131", "2222222", "Sean", "3rd Str.", "UN", "01202"),
]


def fresh_relation() -> Relation:
    return Relation.from_rows(list(ATTRIBUTES), [tuple(row) for row in ROWS])


@pytest.fixture
def store(tmp_path) -> CacheStore:
    return CacheStore(tmp_path / "cache")


class TestLockPrimitive:
    def test_acquire_yields_true_and_cleans_up(self, store):
        path = store.root / "fp" / ".lock-kind"
        with store.lock("fp", "kind") as acquired:
            assert acquired is True
            assert path.exists()
        assert not path.exists()

    def test_mutual_exclusion_between_threads(self, store):
        order = []
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with store.lock("fp", "kind") as acquired:
                assert acquired
                order.append("holder-in")
                entered.set()
                assert release.wait(timeout=10)
                order.append("holder-out")

        def contender():
            assert entered.wait(timeout=10)
            with store.lock("fp", "kind") as acquired:
                assert acquired
                order.append("contender-in")

        threads = [threading.Thread(target=holder), threading.Thread(target=contender)]
        for thread in threads:
            thread.start()
        assert entered.wait(timeout=10)
        time.sleep(0.05)  # give the contender time to start spinning
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert order == ["holder-in", "holder-out", "contender-in"]

    def test_distinct_kinds_do_not_contend(self, store):
        with store.lock("fp", "a") as first:
            with store.lock("fp", "b") as second:
                assert first and second

    def test_stale_lock_is_broken(self, store, monkeypatch):
        directory = store.root / "fp"
        directory.mkdir(parents=True)
        stale = directory / ".lock-kind"
        stale.touch()
        old = time.time() - (store.LOCK_STALE_SECONDS + 10)
        import os

        os.utime(stale, (old, old))
        started = time.monotonic()
        with store.lock("fp", "kind") as acquired:
            assert acquired is True
        assert time.monotonic() - started < store.LOCK_TIMEOUT_SECONDS

    def test_timeout_degrades_to_unlocked(self, store, monkeypatch):
        monkeypatch.setattr(CacheStore, "LOCK_TIMEOUT_SECONDS", 0.05)
        directory = store.root / "fp"
        directory.mkdir(parents=True)
        held = directory / ".lock-kind"
        held.touch()  # fresh foreign lock that never releases
        with store.lock("fp", "kind") as acquired:
            assert acquired is False
        assert store.lock_timeouts == 1
        assert held.exists()  # a lock we failed to take is never unlinked
        assert store.info()["lock_timeouts"] == 1

    def test_lock_files_are_invisible_to_entry_walks(self, store):
        store.put("fp", store_format.KIND_FREE_CLOSED, {"k": 1}, meta={})
        with store.lock("fp", "kind"):
            assert len(store) == 1
            assert store.load_all("fp") != []


class TestConcurrentSpill:
    def test_concurrent_dumps_of_same_fingerprint_union(self, store):
        """The spill race: two workers spill the same relation at once.

        Each session asks its difference-set provider *different* queries,
        then both dump concurrently (barrier-released).  A provider's query
        cache lives under one fixed store key per relation; its merge used
        to race read→union→write, so the slower writer dropped the faster
        one's additions.  Under the lock the merged entry carries both."""
        queries = {
            side: [
                (rhs, frozenset({(attribute, 0)}))
                for attribute in attributes
                for rhs in range(len(ATTRIBUTES))
                if rhs != attribute
            ]
            for side, attributes in (("left", (0, 1, 2)), ("right", (3, 4, 5)))
        }
        for _ in range(20):  # many rounds give a real race room to show
            store.clear()
            sessions = {}
            for side, asked in queries.items():
                sessions[side] = Profiler(fresh_relation())
                provider = sessions[side].partition_difference_sets()
                for rhs, items in asked:
                    provider.minimal_difference_sets(rhs, items)

            barrier = threading.Barrier(2, timeout=10)
            failures = []

            def spill(profiler):
                try:
                    barrier.wait()
                    profiler.dump_caches(store)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    failures.append(exc)

            threads = [
                threading.Thread(target=spill, args=(profiler,))
                for profiler in sessions.values()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert not failures

            reloaded = Profiler(fresh_relation())
            assert reloaded.warm_from(store) > 0
            exported = reloaded.partition_difference_sets().export_cache()
            merged = {(rhs, items) for rhs, items, _ in exported}
            # Both sessions' queries survived the concurrent merge.
            assert merged == set(queries["left"] + queries["right"]), merged


class TestStoreBudget:
    def test_validation(self, tmp_path):
        from repro.exceptions import CacheStoreError

        with pytest.raises(CacheStoreError):
            CacheStore(tmp_path / "c", max_bytes=-1)

    def test_enforce_budget_noop_within_budget(self, tmp_path):
        store = CacheStore(tmp_path / "c", max_bytes=10 * 2 ** 20)
        profiler = Profiler(fresh_relation())
        profiler.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
        profiler.dump_caches(store)
        assert store.enforce_budget() is None
        assert len(store) > 0

    def test_unbounded_store_never_collects(self, tmp_path):
        store = CacheStore(tmp_path / "c")
        assert store.max_bytes is None
        assert store.enforce_budget() is None
        assert store.info()["max_bytes"] is None

    def test_spill_past_budget_collects_back_down(self, tmp_path):
        store = CacheStore(tmp_path / "c", max_bytes=1)  # everything overflows
        profiler = Profiler(fresh_relation())
        profiler.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
        written = profiler.dump_caches(store)
        assert written > 0
        # dump_caches itself enforced the budget after spilling: with a
        # 1-byte budget the cost-aware GC evicts (almost) everything.
        assert len(store) < written

    def test_budget_is_reported(self, tmp_path):
        store = CacheStore(tmp_path / "c", max_bytes=4096)
        assert store.info()["max_bytes"] == 4096
