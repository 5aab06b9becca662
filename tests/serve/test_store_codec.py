"""The store codec as one unit: every kind ``dump_caches`` writes round-trips.

A warmed session is dumped, a fresh session over an equal relation warms
from that store and dumps into a second one; every entry of the second
dump must carry exactly the meta and arrays of the first.  That pins each
kind's encoder and decoder against each other, including the rules of
engine results and the params of every key.  The digest covers the header
as well as the buffers, so a patched meta degrades to a cold build.
"""

import json
import struct

import numpy as np
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


def entries(store: CacheStore) -> dict:
    """The relation's entries keyed by kind and canonical params."""
    return {
        (entry.kind, json.dumps(entry.params, sort_keys=True)): entry
        for entry in store.load_all(fresh_relation().fingerprint())
    }


#: The ``cache_info()`` buckets the store carries; partitions are rebuilt.
PERSISTED_BUCKETS = (
    "free_closed",
    "closed_difference_sets",
    "partition_difference_sets",
    "engine_results",
)


def follow_up(session: Profiler, algorithm: str) -> dict:
    """Cache hits and misses of one run at a new support threshold."""
    before = session.cache_info()
    session.run(DiscoveryRequest(min_support=3, algorithm=algorithm))
    after = session.cache_info()
    return {
        cache: (after[cache]["hits"] - before[cache]["hits"],
                after[cache]["misses"] - before[cache]["misses"])
        for cache in PERSISTED_BUCKETS
    }


#: The kinds each warmed session writes; between them, every warm-load kind.
SESSIONS = {
    "ctane": {store_format.KIND_ENGINE_RESULTS},
    "fastcfd": {
        store_format.KIND_FREE_CLOSED,
        store_format.KIND_DIFFERENCE_SETS,
        store_format.KIND_ENGINE_RESULTS,
    },
}


class TestDumpWarmDump:
    def test_sessions_cover_every_warm_load_kind(self):
        assert set().union(*SESSIONS.values()) == set(store_format.KIND_ORDER)

    @pytest.mark.parametrize("algorithm", sorted(SESSIONS))
    def test_every_entry_round_trips_identically(self, tmp_path, algorithm):
        first = CacheStore(tmp_path / "first")
        second = CacheStore(tmp_path / "second")
        warmed = Profiler(fresh_relation())
        warmed.run(DiscoveryRequest(min_support=2, algorithm=algorithm))
        written = warmed.dump_caches(first)

        reloaded = Profiler(fresh_relation())
        assert reloaded.warm_from(first) == written
        assert reloaded.dump_caches(second) == written

        # The warm session holds what was dumped, keys included: a follow-up
        # run hits and misses its caches exactly as the dumped session does.
        assert follow_up(reloaded, algorithm) == follow_up(warmed, algorithm)

        dumped, redumped = entries(first), entries(second)
        assert {kind for kind, _ in dumped} == SESSIONS[algorithm]
        assert sorted(redumped) == sorted(dumped)
        for key, entry in dumped.items():
            again = redumped[key]
            assert again.meta == entry.meta, key
            assert sorted(again.arrays) == sorted(entry.arrays), key
            for name, array in entry.arrays.items():
                assert again.arrays[name].dtype == array.dtype, (key, name)
                assert np.array_equal(again.arrays[name], array), (key, name)


class TestHeaderDigest:
    def test_patched_meta_is_quarantined_not_served(self, tmp_path):
        """A meta edit that stays valid JSON must fail the digest: adding an
        item to every closure of the k=2 free/closed entry (buffers
        untouched) used to warm-load and shrink the FastCFD cover."""

        def relation() -> Relation:
            return Relation.from_rows(list(ATTRIBUTES), ROWS[:5])

        request = DiscoveryRequest(min_support=2, algorithm="fastcfd")
        store = CacheStore(tmp_path / "cache")
        warmed = Profiler(relation())
        cold = warmed.run(request)
        assert len(cold.cfds) == 48
        warmed.dump_caches(store)
        directory = store.root / relation().fingerprint()
        for path in directory.glob("engine_results-*.rpc"):
            path.unlink()  # so the warm run mines from the stored entry

        (path,) = directory.glob("free_closed-*.rpc")
        blob = path.read_bytes()
        start = len(CacheStore.MAGIC) + 8
        (length,) = struct.unpack("<Q", blob[len(CacheStore.MAGIC):start])
        header = json.loads(blob[start:start + length])
        assert header["params"]["k"] == 2
        for spec in header["meta"]["sets"]:
            spec["closure"].append([0, 0])
        patched = json.dumps(header, sort_keys=True, separators=(",", ":"))
        path.write_bytes(
            blob[:len(CacheStore.MAGIC)]
            + struct.pack("<Q", len(patched))
            + patched.encode("utf-8")
            + blob[start + length:]
        )

        reloaded = Profiler(relation())
        reloaded.warm_from(store)
        warm = reloaded.run(request)
        assert store.quarantined == 1
        assert sorted(map(str, warm.cfds)) == sorted(map(str, cold.cfds))
