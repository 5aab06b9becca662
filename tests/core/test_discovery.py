"""Unit tests for the keyword discovery front end, ``repro.api.discover``."""

import pytest

from repro.api import REGISTRY, discover
from repro.exceptions import DiscoveryError
from repro.relational.relation import Relation


@pytest.fixture
def relation() -> Relation:
    return Relation.from_rows(
        ["A", "B", "C"],
        [
            (1, 5, "p"),
            (1, 5, "q"),
            (2, 6, "p"),
            (2, 6, "q"),
        ],
    )


class TestDiscoverFrontend:
    def test_unknown_algorithm_rejected(self, relation):
        with pytest.raises(DiscoveryError):
            discover(relation, algorithm="nope")

    @pytest.mark.parametrize("algorithm", ["cfdminer", "ctane", "fastcfd", "naivefast"])
    def test_each_algorithm_runs(self, relation, algorithm):
        result = discover(relation, 2, algorithm=algorithm)
        assert result.algorithm == algorithm
        assert result.relation_size == 4
        assert result.relation_arity == 3
        assert result.elapsed_seconds >= 0
        assert result.n_cfds == len(result.cfds)

    def test_cfdminer_returns_constant_only(self, relation):
        result = discover(relation, 2, algorithm="cfdminer")
        assert result.variable_cfds == []
        assert result.constant_cfds == result.cfds

    def test_counts_sum(self, relation):
        result = discover(relation, 2, algorithm="fastcfd")
        counts = result.counts()
        assert counts["constant"] + counts["variable"] == counts["total"]

    def test_summary_mentions_algorithm(self, relation):
        assert "fastcfd" in discover(relation, 2, algorithm="fastcfd").summary()

    def test_ctane_extra_statistics(self, relation):
        result = discover(relation, 2, algorithm="ctane")
        assert result.extra["candidates_checked"] > 0

    def test_options_forwarded(self, relation):
        result = discover(relation, 2, algorithm="fastcfd", constant_cfds="skip")
        assert all(cfd.is_variable for cfd in result.cfds)

    def test_auto_runs(self, relation):
        result = discover(relation, 2, algorithm="auto")
        assert result.algorithm in REGISTRY.choices()

    def test_max_lhs_size_forwarded(self, relation):
        result = discover(relation, 1, algorithm="ctane", max_lhs_size=1)
        assert all(len(cfd.lhs) <= 1 for cfd in result.cfds)


class TestChooseAlgorithm:
    """``algorithm="auto"`` through the front end runs the engine the
    relation's shape calls for."""

    def test_wide_relation_prefers_fastcfd(self):
        wide = Relation.from_rows(
            [f"A{i}" for i in range(12)], [tuple(range(12)), tuple(range(12))]
        )
        assert discover(wide, 2, algorithm="auto").algorithm == "fastcfd"

    def test_high_support_prefers_ctane(self, relation):
        # k/|r| = 0.5
        assert discover(relation, 2, algorithm="auto").algorithm == "ctane"

    def test_low_support_prefers_fastcfd(self):
        tall = Relation.from_rows(["A", "B"], [(i % 5, i % 3) for i in range(100)])
        assert discover(tall, 2, algorithm="auto").algorithm == "fastcfd"
