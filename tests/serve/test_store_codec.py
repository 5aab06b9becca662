"""The store codec as one unit: every kind ``dump_caches`` writes round-trips.

A warmed session is dumped, a fresh session over an equal relation warms
from that store and dumps into a second one; every entry of the second
dump must carry exactly the meta and arrays of the first.  That pins each
kind's encoder and decoder against each other, including the lattice
elements of pattern partitions, the rules of engine results and the
params of every key.
"""

import json

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


def follow_up(session: Profiler, algorithm: str) -> dict:
    """Cache hits and misses of one run at a new support threshold."""
    before = session.cache_info()
    session.run(DiscoveryRequest(min_support=3, algorithm=algorithm))
    after = session.cache_info()
    return {
        cache: (after[cache]["hits"] - counts["hits"],
                after[cache]["misses"] - counts["misses"])
        for cache, counts in before.items()
    }


#: The kinds each warmed session writes; between them, every warm-load kind.
SESSIONS = {
    "ctane": {
        store_format.KIND_ATTRIBUTE_PARTITIONS,
        store_format.KIND_PATTERN_PARTITIONS,
        store_format.KIND_ENGINE_RESULTS,
    },
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
