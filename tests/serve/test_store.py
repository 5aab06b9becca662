"""Tests for the persistent cache store: format guards, Profiler round trips.

The satellite acceptance bar: for every algorithm, a warmed ``Profiler``
dumped to a :class:`~repro.serve.CacheStore` and reloaded in a fresh
process-like context (a new ``Profiler`` over an independently constructed
equal relation) must produce byte-identical ``DiscoveryResult`` output and
record cache hits on the warm path — and a corrupted or mismatched store
must degrade to a cold build, never to a crash.
"""

import json

import numpy as np
import pytest

from repro.api import DiscoveryRequest, Profiler
from repro.exceptions import CacheStoreError
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
    """An independently constructed copy (simulates a new process)."""
    return Relation.from_rows(list(ATTRIBUTES), [tuple(row) for row in ROWS])


@pytest.fixture
def store(tmp_path) -> CacheStore:
    return CacheStore(tmp_path / "cache")


def rules_bytes(result) -> str:
    return json.dumps(result.to_json_dict()["rules"])


class TestEntryFormat:
    def test_put_get_round_trip(self, store):
        arrays = {
            "rows": np.arange(5, dtype=np.int64),
            "labels": np.array([0, 0, 1, 1, 2], dtype=np.int32),
        }
        store.put("fp1", "free_closed", {"k": 2}, meta={"x": 1}, arrays=arrays)
        entry = store.get("fp1", "free_closed", {"k": 2})
        assert entry is not None
        assert entry.meta == {"x": 1}
        assert np.array_equal(entry.array("rows", "int64"), arrays["rows"])
        assert np.array_equal(entry.array("labels", "int32"), arrays["labels"])

    def test_missing_entry_is_none(self, store):
        assert store.get("fp1", "free_closed", {"k": 99}) is None

    def test_distinct_params_are_distinct_entries(self, store):
        store.put("fp1", "free_closed", {"k": 2}, meta={"k": 2})
        store.put("fp1", "free_closed", {"k": 3}, meta={"k": 3})
        assert store.get("fp1", "free_closed", {"k": 2}).meta == {"k": 2}
        assert store.get("fp1", "free_closed", {"k": 3}).meta == {"k": 3}
        assert len(store) == 2

    def test_truncated_file_is_a_miss_not_a_crash(self, store):
        path = store.put(
            "fp1", "free_closed", {"k": 2},
            arrays={"rows": np.arange(100, dtype=np.int64)},
        )
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert store.get("fp1", "free_closed", {"k": 2}) is None
        assert store.load_failures == 1

    def test_garbage_file_is_a_miss(self, store):
        path = store.put("fp1", "free_closed", {"k": 2}, meta={})
        path.write_bytes(b"this is not a cache entry at all")
        assert store.get("fp1", "free_closed", {"k": 2}) is None

    def test_format_version_mismatch_is_a_miss(self, store, monkeypatch):
        monkeypatch.setattr(CacheStore, "FORMAT_VERSION", 99)
        store.put("fp1", "free_closed", {"k": 2}, meta={})
        monkeypatch.undo()
        assert store.get("fp1", "free_closed", {"k": 2}) is None
        assert store.load_failures == 1

    def test_fingerprint_reverification_on_load(self, store, tmp_path):
        path = store.put("fp1", "free_closed", {"k": 2}, meta={})
        # Simulate a moved/mixed-up file: same bytes under another relation.
        target = store.root / "fp2" / path.name
        target.parent.mkdir(parents=True)
        target.write_bytes(path.read_bytes())
        assert store.get("fp2", "free_closed", {"k": 2}) is None
        assert store.load_all("fp2") == []

    def test_forbidden_dtype_rejected_on_write(self, store):
        with pytest.raises(CacheStoreError, match="dtype"):
            store.put(
                "fp1", "free_closed", {"k": 2},
                arrays={"bad": np.array(["a", "b"], dtype=object)},
            )

    def test_dtype_guard_on_read(self, store):
        store.put(
            "fp1", "free_closed", {"k": 2},
            arrays={"rows": np.arange(4, dtype=np.float64)},
        )
        entry = store.get("fp1", "free_closed", {"k": 2})
        with pytest.raises(CacheStoreError, match="dtype"):
            entry.array("rows", "int64")

    def test_clear_and_size(self, store):
        store.put("fp1", "free_closed", {"k": 2}, meta={})
        store.put("fp2", "free_closed", {"k": 2}, meta={})
        assert store.size_bytes() > 0
        assert store.clear("fp1") == 1
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0

    def test_info_counters(self, store):
        store.put("fp1", "free_closed", {"k": 2}, meta={})
        store.get("fp1", "free_closed", {"k": 2})
        info = store.info()
        assert info["entries"] == 1
        assert info["writes"] == 1
        assert info["loads"] == 1
        assert info["load_failures"] == 0


class TestProfilerRoundTrip:
    @pytest.mark.parametrize(
        "algorithm", ["cfdminer", "ctane", "fastcfd", "naivefast"]
    )
    def test_dump_reload_is_byte_identical_and_warm(self, store, algorithm):
        request = DiscoveryRequest(min_support=2, algorithm=algorithm)
        warmed = Profiler(fresh_relation())
        cold_result = warmed.run(request)
        assert warmed.dump_caches(store) > 0

        reloaded = Profiler(fresh_relation())
        assert reloaded.warm_from(store) > 0
        warm_result = reloaded.run(request)

        assert rules_bytes(warm_result) == rules_bytes(cold_result)
        info = reloaded.cache_info()
        # The warm path is served from the loaded caches: the memoised
        # engine result hits, and nothing was mined or rebuilt.
        assert info["engine_results"] == {"hits": 1, "misses": 0, "size": 1}
        assert info["free_closed"]["misses"] == 0
        assert info["closed_difference_sets"]["misses"] == 0
        assert info["partition_difference_sets"]["misses"] == 0

    def test_warm_structures_serve_new_supports(self, store):
        """Structure caches (not just memoised covers) survive the round
        trip: a *different* threshold on the warm session reuses the
        k-independent provider instead of rebuilding it."""
        warmed = Profiler(fresh_relation())
        warmed.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
        warmed.dump_caches(store)

        reloaded = Profiler(fresh_relation())
        reloaded.warm_from(store)
        result = reloaded.run(DiscoveryRequest(min_support=3, algorithm="fastcfd"))
        oneshot = Profiler(fresh_relation()).run(
            DiscoveryRequest(min_support=3, algorithm="fastcfd")
        )
        assert sorted(map(str, result.cfds)) == sorted(map(str, oneshot.cfds))
        info = reloaded.cache_info()
        assert info["engine_results"]["misses"] == 1  # k=3 was never cached
        assert info["closed_difference_sets"]["hits"] == 1  # provider was
        assert info["closed_difference_sets"]["misses"] == 0

    def test_build_seconds_restored_for_cost_aware_eviction(self, store):
        warmed = Profiler(fresh_relation())
        warmed.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
        assert warmed.build_seconds_total() > 0
        warmed.dump_caches(store)

        reloaded = Profiler(fresh_relation())
        reloaded.warm_from(store)
        assert reloaded.build_seconds_total() > 0

    def test_corrupted_store_falls_back_to_cold_build(self, store):
        request = DiscoveryRequest(min_support=2, algorithm="fastcfd")
        warmed = Profiler(fresh_relation())
        expected = warmed.run(request)
        warmed.dump_caches(store)
        for path in store.root.glob("*/*.rpc"):
            blob = path.read_bytes()
            path.write_bytes(blob[: max(8, len(blob) // 3)])

        reloaded = Profiler(fresh_relation())
        assert reloaded.warm_from(store) == 0  # every entry rejected
        result = reloaded.run(request)  # cold build, not a crash
        assert rules_bytes(result) == rules_bytes(expected)
        assert reloaded.cache_info()["engine_results"]["misses"] == 1

    def test_mismatched_relation_loads_nothing(self, store):
        warmed = Profiler(fresh_relation())
        warmed.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
        warmed.dump_caches(store)
        other = Relation.from_rows(["A", "B"], [("x", "1"), ("x", "2")])
        assert Profiler(other).warm_from(store) == 0

    def test_dump_skips_structures_still_building(self, store):
        profiler = Profiler(fresh_relation())
        assert profiler.dump_caches(store) == 0
        assert len(store) == 0

    def test_bundle_dumps_merge_instead_of_clobbering(self, store):
        """Two workers over one relation: the colder worker's later dump
        must not erase the warmer worker's difference-set queries (a
        provider's query cache lives under one fixed store key per
        relation).  Query caches nest by k, so k=1 holds every k=4 query."""

        def query_cache_size(profiler):
            return len(profiler.closed_difference_sets().export_cache())

        warm_worker = Profiler(fresh_relation())
        warm_worker.run(DiscoveryRequest(min_support=1, algorithm="fastcfd"))
        rich = query_cache_size(warm_worker)
        warm_worker.dump_caches(store)

        cold_worker = Profiler(fresh_relation())  # never saw the store
        cold_worker.run(DiscoveryRequest(min_support=4, algorithm="fastcfd"))
        poor = query_cache_size(cold_worker)
        assert poor < rich
        cold_worker.dump_caches(store)  # dumps last — used to clobber

        reloaded = Profiler(fresh_relation())
        reloaded.warm_from(store)
        assert query_cache_size(reloaded) >= rich


class TestPackHelpers:
    def test_query_cache_round_trip(self):
        exported = [
            (2, frozenset({(0, 1), (3, 4)}), {frozenset({1, 2}), frozenset({5})}),
            (0, frozenset(), {frozenset({1})}),
        ]
        meta = store_format.pack_query_cache(exported)
        json.dumps(meta)  # must be JSON-native
        restored = store_format.unpack_query_cache(meta)
        assert sorted(restored) == sorted(
            (rhs, items, family) for rhs, items, family in exported
        )

    def test_engine_result_with_exotic_values_is_not_persisted(self, store):
        from repro.api.result import AlgorithmStats
        from repro.core.cfd import CFD
        from repro.core.pattern import WILDCARD

        cfd = CFD(("A",), ((1, 2),), "B", "x")  # tuple-valued constant
        assert (
            store_format.pack_engine_result((cfd,), AlgorithmStats(algorithm="t"))
            is None
        )
        # The checkpoint path refuses the same rule.
        state = {
            "size": 2, "level": [], "parent_cplus": {}, "parent_partitions": {},
            "level_partitions": {}, "counters": {}, "results": [cfd],
        }
        assert store_format.pack_ctane_checkpoint(state) is None

        # Scalar constants round-trip exactly (type included) on both paths.
        scalars = [
            CFD(("A", "B"), (value, WILDCARD), "C", value)
            for value in (None, True, False, 0, 1.5, -0.25, "", "Zürich ✓")
        ]

        def typed(cfds):
            return [
                (
                    cfd.lhs,
                    [(type(v), v) for v in cfd.lhs_pattern],
                    cfd.rhs,
                    (type(cfd.rhs_pattern), cfd.rhs_pattern),
                )
                for cfd in cfds
            ]

        meta = store_format.pack_engine_result(
            scalars, AlgorithmStats(algorithm="t")
        )
        store.put("fp", "engine_results", {"s": 1}, meta=meta)
        restored, _ = store_format.unpack_engine_result(
            store.get("fp", "engine_results", {"s": 1}).meta
        )
        assert typed(restored) == typed(scalars)

        meta, arrays = store_format.pack_ctane_checkpoint(
            dict(state, results=scalars)
        )
        store.put("fp", "ctane_checkpoint", {"s": 1}, meta=meta, arrays=arrays)
        restored = store_format.unpack_ctane_checkpoint(
            store.get("fp", "ctane_checkpoint", {"s": 1})
        )
        assert typed(restored["results"]) == typed(scalars)
