"""Backward-compatibility: the seed discover() API must behave identically."""

import pytest

from repro.api import REGISTRY, DiscoveryRequest, discover
from repro.core.cfdminer import CFDMiner
from repro.core.ctane import CTane
from repro.core.dfd import DFD
from repro.core.fastcfd import FastCFD, NaiveFast
from repro.exceptions import DiscoveryError
from repro.relational.relation import Relation

#: Direct (seed-style) algorithm classes, keyed by registry name.
DIRECT = {
    "cfdminer": CFDMiner,
    "ctane": CTane,
    "fastcfd": FastCFD,
    "naivefast": NaiveFast,
    "dfd": DFD,
}


class TestDiscoverShim:
    def test_algorithms_tuple_tracks_the_registry(self):
        # The seed names stay, in order; later PRs may append engines.
        assert REGISTRY.choices() == (
            "cfdminer", "ctane", "fastcfd", "naivefast", "dfd", "auto"
        )

    @pytest.mark.parametrize("algorithm", sorted(DIRECT))
    def test_identical_cover_to_seed_api(self, cust_relation, algorithm):
        """discover() must return exactly the cover the algorithm class returns
        when driven directly, on the paper's running example (Fig. 1)."""
        via_shim = discover(cust_relation, 2, algorithm=algorithm)
        direct = DIRECT[algorithm](cust_relation, 2).discover()
        assert sorted(map(str, via_shim.cfds)) == sorted(map(str, direct))
        assert via_shim.algorithm == algorithm
        assert via_shim.min_support == 2
        assert via_shim.relation_size == cust_relation.n_rows
        assert via_shim.relation_arity == cust_relation.arity

    def test_auto_resolves_to_concrete_algorithm(self, cust_relation):
        result = discover(cust_relation, 2, algorithm="auto")
        assert result.algorithm in DIRECT

    def test_unknown_algorithm_rejected(self, cust_relation):
        with pytest.raises(DiscoveryError):
            discover(cust_relation, algorithm="nope")

    def test_invalid_support_rejected(self, cust_relation):
        with pytest.raises(DiscoveryError):
            discover(cust_relation, 0)

    def test_options_still_forwarded(self, cust_relation):
        result = discover(
            cust_relation, 2, algorithm="fastcfd", constant_cfds="skip"
        )
        assert result.cfds and all(cfd.is_variable for cfd in result.cfds)

    def test_ctane_extra_keys_preserved(self, cust_relation):
        result = discover(cust_relation, 2, algorithm="ctane")
        assert result.extra["candidates_checked"] > 0
        assert result.extra["elements_generated"] > 0

    def test_package_level_discover_is_the_shim(self, cust_relation):
        import repro

        assert repro.discover is discover


class TestChooseAlgorithmShim:
    """The seed's ``choose_algorithm(r, k)`` is now
    ``REGISTRY.select(r, DiscoveryRequest(min_support=k))``."""

    def test_wide_relation_prefers_fastcfd(self):
        wide = Relation.from_rows(
            [f"A{i}" for i in range(12)], [tuple(range(12)), tuple(range(12))]
        )
        assert REGISTRY.select(wide, DiscoveryRequest(min_support=2)) == "fastcfd"

    def test_high_support_prefers_ctane(self):
        small = Relation.from_rows(
            ["A", "B", "C"], [(1, 5, "p"), (1, 5, "q"), (2, 6, "p"), (2, 6, "q")]
        )
        # k/|r| = 0.5
        assert REGISTRY.select(small, DiscoveryRequest(min_support=2)) == "ctane"

    def test_low_support_prefers_fastcfd(self):
        tall = Relation.from_rows(["A", "B"], [(i % 5, i % 3) for i in range(100)])
        assert REGISTRY.select(tall, DiscoveryRequest(min_support=2)) == "fastcfd"
