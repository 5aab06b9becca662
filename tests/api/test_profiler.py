"""Tests for the Profiler session: cache reuse, progress, execution."""

import pytest

from repro.api import DiscoveryRequest, Profiler, execute
from repro.exceptions import DiscoveryError
from repro.relational.relation import Relation


@pytest.fixture
def relation(cust_relation) -> Relation:
    return cust_relation


class TestCacheReuse:
    def test_two_supports_reuse_cached_structures(self, relation):
        """A support sweep over one relation must not re-mine shared structures."""
        profiler = Profiler(relation)
        low = profiler.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
        high = profiler.run(DiscoveryRequest(min_support=3, algorithm="fastcfd"))
        info = profiler.cache_info()
        # The closed-set difference-set provider is k-independent: built once
        # on the first run, reused verbatim by the second.
        assert info["closed_difference_sets"]["misses"] == 1
        assert info["closed_difference_sets"]["hits"] >= 1
        assert info["closed_difference_sets"]["size"] == 1
        # And the covers match fresh one-shot runs exactly.
        for result, k in ((low, 2), (high, 3)):
            oneshot = execute(
                relation, DiscoveryRequest(min_support=k, algorithm="fastcfd")
            )
            assert sorted(map(str, result.cfds)) == sorted(map(str, oneshot.cfds))

    def test_same_support_reuses_mining(self, relation):
        profiler = Profiler(relation)
        profiler.run(DiscoveryRequest(min_support=2, algorithm="cfdminer"))
        profiler.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
        info = profiler.cache_info()
        # CFDMiner mined (k=2); FastCFD at the same k reuses that result
        # (which doubles as the provider's closed-set index).
        assert info["free_closed"]["hits"] >= 1

    def test_partition_provider_cached_across_naivefast_runs(self, relation):
        profiler = Profiler(relation)
        profiler.run(DiscoveryRequest(min_support=2, algorithm="naivefast"))
        profiler.run(DiscoveryRequest(min_support=3, algorithm="naivefast"))
        info = profiler.cache_info()
        assert info["partition_difference_sets"]["misses"] == 1
        assert info["partition_difference_sets"]["hits"] == 1

    def test_attribute_partition_cached(self, relation):
        profiler = Profiler(relation)
        first = profiler.attribute_partition(["CC", "AC"])
        second = profiler.attribute_partition(["AC", "CC"])  # order-insensitive
        assert first is second
        info = profiler.cache_info()
        assert info["attribute_partitions"] == {"hits": 1, "misses": 1, "size": 1}

    def test_naivefast_timing_unaffected_by_fastcfd_cache(self, relation):
        """The two FastCFD variants keep separate difference-set providers."""
        profiler = Profiler(relation)
        profiler.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
        profiler.run(DiscoveryRequest(min_support=2, algorithm="naivefast"))
        info = profiler.cache_info()
        assert info["partition_difference_sets"]["misses"] == 1


class TestExecution:
    def test_equivalent_covers_across_fastcfd_variants(self, relation):
        profiler = Profiler(relation)
        fastcfd = profiler.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
        naive = profiler.run(DiscoveryRequest(min_support=2, algorithm="naivefast"))
        # NaiveFast is documented to produce the identical cover.
        assert sorted(map(str, fastcfd.cfds)) == sorted(map(str, naive.cfds))

    def test_constant_only_filter_and_dispatch(self, relation):
        profiler = Profiler(relation)
        result = profiler.run(DiscoveryRequest(min_support=2, constant_only=True))
        assert result.algorithm == "cfdminer"  # capability-driven dispatch
        assert result.cfds and all(cfd.is_constant for cfd in result.cfds)

    def test_variable_only_filter(self, relation):
        profiler = Profiler(relation)
        result = profiler.run(
            DiscoveryRequest(min_support=2, algorithm="ctane", variable_only=True)
        )
        assert result.cfds and all(cfd.is_variable for cfd in result.cfds)

    def test_variable_only_on_constant_engine_rejected(self, relation):
        request = DiscoveryRequest(
            min_support=2, algorithm="cfdminer", variable_only=True
        )
        with pytest.raises(DiscoveryError, match="variable"):
            Profiler(relation).run(request)

    def test_rank_by_orders_rules(self, relation):
        from repro.core.measures import measures

        result = Profiler(relation).run(
            DiscoveryRequest(min_support=2, algorithm="cfdminer", rank_by="support")
        )
        supports = [measures(relation, cfd).support_count for cfd in result.cfds]
        assert supports == sorted(supports, reverse=True)

    def test_limit_rows_profiles_the_prefix(self, relation):
        result = Profiler(relation).run(
            DiscoveryRequest(min_support=1, algorithm="fastcfd", limit_rows=4)
        )
        assert result.relation_size == 4

    def test_limit_rows_does_not_poison_session_caches(self, relation):
        profiler = Profiler(relation)
        profiler.run(
            DiscoveryRequest(min_support=1, algorithm="fastcfd", limit_rows=4)
        )
        info = profiler.cache_info()
        # The session's own structure caches stay untouched; the run was
        # served (and recorded) through a pooled prefix sub-session.
        for cache, bucket in info.items():
            if cache != "prefix_sessions":
                assert bucket["size"] == 0
        assert info["prefix_sessions"] == {"hits": 0, "misses": 1, "size": 1}

    def test_limit_rows_reruns_reuse_the_prefix_session(self, relation):
        profiler = Profiler(relation)
        request = DiscoveryRequest(min_support=1, algorithm="fastcfd", limit_rows=4)
        first = profiler.run(request)
        second = profiler.run(request)
        assert sorted(map(str, first.cfds)) == sorted(map(str, second.cfds))
        info = profiler.cache_info()
        assert info["prefix_sessions"] == {"hits": 1, "misses": 1, "size": 1}
        # The re-run was served from the prefix session's memoised engine
        # result instead of rebuilding anything.
        prefix = profiler.prefix_session(4)
        prefix_info = prefix.cache_info()
        assert prefix_info["closed_difference_sets"]["misses"] == 1
        assert prefix_info["engine_results"] == {"hits": 1, "misses": 1, "size": 1}

    def test_distinct_limits_get_distinct_prefix_sessions(self, relation):
        profiler = Profiler(relation)
        for limit in (3, 4, 3):
            profiler.run(
                DiscoveryRequest(min_support=1, algorithm="fastcfd", limit_rows=limit)
            )
        info = profiler.cache_info()
        assert info["prefix_sessions"] == {"hits": 1, "misses": 2, "size": 2}

    def test_non_truncating_limit_is_the_session_itself(self, relation):
        profiler = Profiler(relation)
        assert profiler.prefix_session(relation.n_rows) is profiler
        assert profiler.cache_info()["prefix_sessions"]["size"] == 0

    def test_estimated_bytes_grow_with_caches(self, relation):
        profiler = Profiler(relation)
        cold = profiler.estimated_bytes()
        profiler.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
        warmed = profiler.estimated_bytes()
        assert warmed > cold
        # Prefix sub-sessions are included in the session's own budget.
        profiler.run(
            DiscoveryRequest(min_support=1, algorithm="fastcfd", limit_rows=4)
        )
        assert profiler.estimated_bytes() > warmed

    def test_estimated_bytes_count_the_kept_rule_texts(self, relation):
        profiler = Profiler(relation)
        result = profiler.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
        before = profiler.estimated_bytes()
        body = result.json_bytes()
        # The body's rule bytes: the rules array less its ", " separators.
        rules = body[body.index(b'"rules": [') + len(b'"rules": [') : -len(b"]}")]
        rule_bytes = len(rules) - 2 * (len(result.cfds) - 1)
        assert rule_bytes > 0
        assert profiler.estimated_bytes() - before >= rule_bytes

    def test_discover_convenience_wrapper(self, relation):
        result = Profiler(relation).discover(
            2, algorithm="fastcfd", constant_cfds="skip"
        )
        assert result.cfds and all(cfd.is_variable for cfd in result.cfds)

    def test_options_forwarded_through_request(self, relation):
        result = execute(
            relation,
            DiscoveryRequest(
                min_support=2,
                algorithm="fastcfd",
                options={"constant_cfds": "skip"},
            ),
        )
        assert all(cfd.is_variable for cfd in result.cfds)

    def test_stats_normalised(self, relation):
        result = Profiler(relation).run(
            DiscoveryRequest(min_support=2, algorithm="ctane")
        )
        assert result.stats is not None
        assert result.stats.algorithm == "ctane"
        assert result.stats.candidates_checked > 0
        # extra stays as the backward-compatible dictionary view
        assert result.extra["candidates_checked"] == result.stats.candidates_checked

    def test_unknown_algorithm_rejected(self, relation):
        with pytest.raises(DiscoveryError, match="unknown algorithm"):
            Profiler(relation).run(DiscoveryRequest(algorithm="nope"))

    @pytest.mark.parametrize(
        "algorithm, option",
        [
            ("ctane", "bogus"),
            ("ctane", "checkpoint"),  # wiring, never a request option
            ("cfdminer", "mining_result"),
            ("fastcfd", "free_result"),
            ("naivefast", "progress"),
            ("dfd", "session"),
        ],
    )
    def test_unknown_engine_option_rejected(self, relation, algorithm, option):
        request = DiscoveryRequest(
            min_support=2, algorithm=algorithm, options={option: 1}
        )
        with pytest.raises(DiscoveryError, match=option) as raised:
            execute(relation, request)
        assert "accepted:" in str(raised.value)
        with pytest.raises(DiscoveryError, match=option):
            Profiler(relation).run(request)


class TestWideRelations:
    """Every engine serves >62-attribute relations (the old pairwise bitmask
    path raised a ValueError there; it now switches to packed boolean rows).
    """

    @pytest.fixture
    def wide_relation(self) -> Relation:
        """63 attributes: just beyond the int64 bitmask fast path."""
        arity = 63
        names = [f"A{i}" for i in range(arity)]
        rows = [
            tuple(f"x{i}" for i in range(arity)),
            tuple(f"y{i}" for i in range(arity)),
            tuple(f"x{i}" if i % 2 else f"z{i}" for i in range(arity)),
        ]
        return Relation.from_rows(names, rows)

    def test_naivefast_serves_beyond_the_bitmask_limit(self, wide_relation):
        """Regression: the pairwise provider used to raise at 63 attributes."""
        request = DiscoveryRequest(min_support=2, algorithm="naivefast")
        result = execute(wide_relation, request)
        assert result.algorithm == "naivefast"

    def test_wide_relations_with_a_session_too(self, wide_relation):
        request = DiscoveryRequest(min_support=2, algorithm="naivefast")
        profiler = Profiler(wide_relation)
        first = profiler.run(request)
        second = profiler.run(request)
        assert [repr(c) for c in first.cfds] == [repr(c) for c in second.cfds]

    def test_engines_agree_beyond_the_bitmask_limit(self, wide_relation):
        covers = {}
        for algorithm in ("fastcfd", "naivefast", "dfd"):
            # min_support = |r| keeps the walk on the pure-FD contexts; the
            # seeded oracle tests cover the conditional contexts widely.
            result = execute(
                wide_relation,
                DiscoveryRequest(min_support=3, algorithm=algorithm),
            )
            covers[algorithm] = sorted(repr(c) for c in result.cfds)
        assert covers["fastcfd"] == covers["naivefast"] == covers["dfd"]

    def test_auto_routes_wide_requests_to_dfd(self):
        relation = Relation.from_rows(
            [f"A{i}" for i in range(70)],
            [tuple(i % 3 for i in range(70)), tuple(i % 5 for i in range(70))],
        )
        result = execute(relation, DiscoveryRequest(min_support=1))
        assert result.algorithm == "dfd"


class TestProgress:
    @pytest.mark.parametrize(
        "algorithm,stage",
        [
            ("ctane", "ctane:level"),
            ("fastcfd", "fastcfd:rhs"),
            ("cfdminer", "cfdminer:free-set"),
        ],
    )
    def test_progress_callback_fires(self, relation, algorithm, stage):
        events = []
        profiler = Profiler(
            relation, progress=lambda s, done, total: events.append((s, done, total))
        )
        profiler.run(DiscoveryRequest(min_support=2, algorithm=algorithm))
        stages = {s for s, _, _ in events}
        assert stage in stages
        for _, done, total in events:
            assert 1 <= done <= total

    def test_one_shot_runs_have_no_progress(self, relation):
        # execute() without a session must not crash on progress handling
        result = execute(relation, DiscoveryRequest(min_support=2, algorithm="ctane"))
        assert result.n_cfds > 0
