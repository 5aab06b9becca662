"""Unit tests for CTANE (levelwise general CFD discovery, Section 4)."""

import pytest

from repro.core.bruteforce import discover_bruteforce
from repro.core.cfd import CFD, cfd_from_fd
from repro.core.ctane import CTane, discover_cfds_ctane
from repro.core.minimality import is_minimal
from repro.core.pattern import WILDCARD
from repro.core.validation import support_count
from repro.exceptions import DiscoveryError
from repro.relational.relation import Relation


@pytest.fixture
def relation() -> Relation:
    # A -> B holds only for A = 1; C -> B holds globally; D is constant.
    return Relation.from_rows(
        ["A", "B", "C", "D"],
        [
            (1, 5, "p", "k"),
            (1, 5, "q", "k"),
            (2, 6, "r", "k"),
            (2, 7, "s", "k"),
            (2, 7, "s", "k"),
        ],
    )


class TestCTaneBasics:
    def test_invalid_support_rejected(self, relation):
        with pytest.raises(DiscoveryError):
            CTane(relation, min_support=0)

    def test_finds_conditional_constant_rule(self, relation):
        found = set(CTane(relation, 2).discover())
        assert CFD(("A",), (1,), "B", 5) in found

    def test_finds_conditional_variable_rule(self, relation):
        found = set(CTane(relation, 2).discover())
        assert CFD(("A",), (1,), "B", WILDCARD) in found

    def test_finds_global_fd(self, relation):
        found = set(CTane(relation, 1).discover())
        assert cfd_from_fd(("C",), "B") in found

    def test_finds_constant_column_rule(self, relation):
        found = set(CTane(relation, 1).discover())
        assert CFD((), (), "D", "k") in found

    def test_violated_fd_absent(self, relation):
        assert cfd_from_fd(("A",), "B") not in set(CTane(relation, 1).discover())

    def test_every_output_is_minimal_and_frequent(self, relation):
        for k in (1, 2, 3):
            for cfd in CTane(relation, k).discover():
                assert is_minimal(relation, cfd, k=k), str(cfd)
                assert support_count(relation, cfd) >= k

    def test_no_duplicates(self, relation):
        found = CTane(relation, 1).discover()
        assert len(found) == len(set(found))

    def test_equals_bruteforce(self, relation):
        for k in (1, 2):
            assert set(CTane(relation, k).discover()) == discover_bruteforce(relation, k)

    def test_support_threshold_monotone(self, relation):
        counts = [len(CTane(relation, k).discover()) for k in (1, 2, 3)]
        assert counts == sorted(counts, reverse=True)

    def test_statistics_populated(self, relation):
        ctane = CTane(relation, 1)
        ctane.discover()
        assert ctane.candidates_checked > 0
        assert ctane.elements_generated > 0

    def test_wrapper(self, relation):
        assert set(discover_cfds_ctane(relation, 2)) == set(CTane(relation, 2).discover())


class TestCTaneOptions:
    def test_max_lhs_size(self, relation):
        for cfd in CTane(relation, 1, max_lhs_size=1).discover():
            assert len(cfd.lhs) <= 1

    def test_pruning_ablation_preserves_output(self, relation):
        with_pruning = set(CTane(relation, 2, cplus_pruning=True).discover())
        without_pruning = set(CTane(relation, 2, cplus_pruning=False).discover())
        assert with_pruning == without_pruning

    def test_verify_minimality_does_not_change_output(self, relation):
        raw = set(CTane(relation, 2).discover())
        verified = set(CTane(relation, 2, verify_minimality=True).discover())
        assert raw == verified

    def test_incremental_equals_bruteforce_on_random_relations(self):
        import numpy as np

        rng = np.random.default_rng(11)
        for trial in range(6):
            rows = [
                tuple(int(v) for v in rng.integers(0, 3, size=3))
                for _ in range(int(rng.integers(2, 9)))
            ]
            r = Relation.from_rows(["A", "B", "C"], rows)
            for k in (1, 2):
                found = CTane(r, k).discover()
                assert set(found) == discover_bruteforce(r, k)

    def test_session_shares_attribute_partitions(self, relation):
        from repro.api import Profiler

        profiler = Profiler(relation)
        with_session = CTane(relation, 2, session=profiler).discover()
        assert with_session == CTane(relation, 2).discover()
        info = profiler.cache_info()["attribute_partitions"]
        assert info["misses"] > 0
        # a second run over the same session hits the shared cache
        CTane(relation, 2, session=profiler).discover()
        assert profiler.cache_info()["attribute_partitions"]["hits"] > 0


class TestCTaneEdgeCases:
    def test_single_tuple_relation(self):
        r = Relation.from_rows(["A", "B"], [(1, "x")])
        found = set(CTane(r, 1).discover())
        assert CFD((), (), "A", 1) in found
        assert CFD((), (), "B", "x") in found

    def test_duplicate_rows(self):
        r = Relation.from_rows(["A", "B"], [(1, "x"), (1, "x"), (1, "x")])
        found = set(CTane(r, 2).discover())
        assert CFD((), (), "A", 1) in found
        assert CFD((), (), "B", "x") in found

    def test_no_frequent_patterns(self):
        r = Relation.from_rows(["A", "B"], [(1, "x"), (2, "y"), (3, "z")])
        found = set(CTane(r, 2).discover())
        # nothing repeats, so no k=2 CFDs exist at all
        assert found == discover_bruteforce(r, 2)

    def test_two_column_bijection_matches_bruteforce(self):
        r = Relation.from_rows(["A", "B"], [(1, "x"), (1, "x"), (2, "y")])
        assert set(CTane(r, 1).discover()) == discover_bruteforce(r, 1)
