"""The session byte accountant: running totals, checked three ways.

* Against the walk: :func:`walked_bytes` re-sums every cached structure
  the way ``Profiler.estimated_bytes()`` used to, with the same per-entry
  constants; the running total must equal it exactly after every kind of
  cache change (cold runs, memo hits, encoded answers, LRU drops, warm
  loads, failed builds, concurrent sweeps).
* Against the work a read does: a pooled memo hit and ``pool.info()`` must
  size nothing per item.
* Against the heap: the estimate stays within [0.5, 2]x of the bytes
  tracemalloc sees live after the session's runs.
"""

import gc
import sys
import threading
import tracemalloc

import pytest

from repro.api import DiscoveryRequest, Profiler
from repro.api import profiler as profiler_module
from repro.core import fastcfd as fastcfd_module
from repro.core.fastcfd import ClosedSetDifferenceSets
from repro.datagen import generate_tax
from repro.datagen.wide import WideRelationGenerator
from repro.relational.partition import Partition
from repro.serve import CacheStore, SessionPool

ENGINES = ("cfdminer", "ctane", "fastcfd", "naivefast", "dfd")


# ---------------------------------------------------------------------- #
# the reference: walk every cached structure
# ---------------------------------------------------------------------- #
def _family(family) -> int:
    return 64 + sum(64 + 64 * len(member) for member in family)


def _provider_walk(provider) -> int:
    total = 0
    if isinstance(provider, ClosedSetDifferenceSets):
        total += _family(provider._closed_items) + _family(provider._closed_attrs)
        total += _family(provider._closed_complements)
        total += _family(provider._postings.values())
        total += 64 * len(provider._all_indices)
    for (_, items), family in list(provider._cache.items()):
        total += fastcfd_module._QUERY_ENTRY_BYTES + 64 * len(items)
        total += _family(family)
    return total


def walked_bytes(profiler: Profiler) -> int:
    """What ``estimated_bytes()`` must read, summed from the caches."""
    entry = profiler_module._PARTITION_ENTRY_BYTES
    done = Profiler._completed
    total = 256
    for future in list(profiler._free_closed.values()):
        mined = done(future)
        for free in mined.free_sets.values() if mined is not None else ():
            total += int(free.tids.nbytes) + profiler_module._FREE_SET_ENTRY_BYTES
            total += 64 * (len(free.items) + len(free.closure))
    for future in list(profiler._providers.values()):
        if done(future) is not None:
            total += _provider_walk(done(future))
    for partition in list(profiler._partitions.values()):
        total += partition.nbytes + entry
    for partition in list(profiler._pattern_partitions.values()):
        total += partition.nbytes + entry
    for future in list(profiler._engine_results.values()):
        if done(future) is not None:
            cfds, _ = done(future)
            total += 256 + 96 * len(cfds)
            total += sum(
                sys.getsizeof(cfd._json_text)
                for cfd in cfds
                if cfd._json_text is not None
            )
    for prefix in list(profiler._prefix_sessions.values()):
        total += walked_bytes(prefix)
    return total


def assert_accounted(profiler: Profiler) -> None:
    assert profiler.estimated_bytes() == walked_bytes(profiler)
    for future in profiler._providers.values():
        provider = Profiler._completed(future)
        if provider is not None:
            assert provider.estimated_bytes() == _provider_walk(provider)


@pytest.fixture(scope="module")
def tax150():
    return generate_tax(150, arity=7, seed=3)


def _request(algorithm, k, **kwargs):
    return DiscoveryRequest(min_support=k, algorithm=algorithm, **kwargs)


# ---------------------------------------------------------------------- #
# the running total equals the walk
# ---------------------------------------------------------------------- #
class TestRunningTotalEqualsTheWalk:
    @pytest.mark.parametrize("algorithm", ENGINES)
    def test_cold_run_and_memo_hit(self, tax150, algorithm):
        profiler = Profiler(tax150)
        profiler.run(_request(algorithm, 10))
        assert profiler.estimated_bytes() > 256
        assert_accounted(profiler)
        profiler.run(_request(algorithm, 10))
        assert profiler.cache_info()["engine_results"]["hits"] == 1
        assert_accounted(profiler)

    def test_json_and_constant_only_answers(self, tax150):
        profiler = Profiler(tax150)
        constant = profiler.run(_request("fastcfd", 10, constant_only=True))
        list(constant.iter_jsonl())  # only the constant rules keep texts
        assert_accounted(profiler)
        assert_accounted(profiler)  # a partial cover is re-summed per read
        full = profiler.run(_request("fastcfd", 10))
        full.json_bytes()
        assert_accounted(profiler)  # every rule has a text: summed once
        full.json_bytes()
        assert_accounted(profiler)

    def test_prefix_sessions_past_the_bound(self, tax150):
        profiler = Profiler(tax150)
        limits = range(40, 40 + 10 * (profiler_module.MAX_PREFIX_SESSIONS + 2), 10)
        for limit in limits:
            profiler.run(_request("ctane", 10, limit_rows=limit))
            assert_accounted(profiler)
        assert (
            profiler.cache_info()["prefix_sessions"]["size"]
            == profiler_module.MAX_PREFIX_SESSIONS
        )

    def test_memo_entries_past_the_bound(self, tax150, monkeypatch):
        monkeypatch.setattr(profiler_module, "MAX_ENGINE_RESULTS", 3)
        profiler = Profiler(tax150)
        for k in (8, 10, 12, 14, 16, 10):
            result = profiler.run(_request("fastcfd", k))
            assert_accounted(profiler)
            result.json_bytes()
            assert_accounted(profiler)
        assert profiler.cache_info()["engine_results"]["size"] == 3
        assert len(profiler._memo_text_bytes) <= 3

    def test_warm_from_a_store(self, tax150, tmp_path):
        store = CacheStore(tmp_path / "cache")
        first = Profiler(tax150)
        for algorithm in ("fastcfd", "naivefast", "cfdminer"):
            first.run(_request(algorithm, 10)).json_bytes()
        assert first.dump_caches(store) > 0
        warmed = Profiler(tax150)
        assert warmed.warm_from(store) > 0
        assert warmed.estimated_bytes() > 256
        assert_accounted(warmed)
        warmed.run(_request("fastcfd", 10))
        assert warmed.cache_info()["engine_results"]["hits"] == 1
        assert_accounted(warmed)
        # A second load finds every structure present and charges nothing.
        warmed.warm_from(store)
        assert_accounted(warmed)

    def test_failed_builds_charge_nothing(self, tax150, monkeypatch):
        profiler = Profiler(tax150)
        profiler.run(_request("ctane", 20))
        before = profiler.estimated_bytes()

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            profiler.engine_result("fastcfd", _request("fastcfd", 5), boom)
        monkeypatch.setattr(profiler_module, "mine_free_and_closed", boom)
        with pytest.raises(RuntimeError):
            profiler.free_closed(7)
        assert profiler.estimated_bytes() == before
        assert_accounted(profiler)

    def test_threads_sweeping_both_providers(self, tax150):
        """Threads computing the same difference-set query insert it once
        and charge it once."""
        profiler = Profiler(tax150)
        barrier = threading.Barrier(8)
        errors = []

        def sweep(index):
            try:
                barrier.wait(timeout=30)
                for k in (12, 8, 6) if index % 2 else (6, 8, 12):
                    algorithm = "fastcfd" if index < 4 else "naivefast"
                    profiler.run(_request(algorithm, k))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the inserts finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert profiler.cache_info()["closed_difference_sets"]["size"] == 1
        assert profiler.cache_info()["partition_difference_sets"]["size"] == 1
        assert_accounted(profiler)


# ---------------------------------------------------------------------- #
# a memoised answer sizes nothing
# ---------------------------------------------------------------------- #
class _SizingCalls:
    """Counts every per-item sizing call the accountant could make."""

    def __init__(self, monkeypatch):
        self.calls = 0
        nbytes = Partition.nbytes

        def counted_nbytes(partition):
            self.calls += 1
            return nbytes.fget(partition)

        monkeypatch.setattr(Partition, "nbytes", property(counted_nbytes))
        for module, name in (
            (fastcfd_module, "_entry_bytes"),
            (fastcfd_module, "_family_bytes"),
            (profiler_module, "_mining_bytes"),
            (profiler_module, "kept_rule_text_bytes"),
        ):
            monkeypatch.setattr(module, name, self._counting(getattr(module, name)))

    def _counting(self, function):
        def counted(*args, **kwargs):
            self.calls += 1
            return function(*args, **kwargs)

        return counted


class TestMemoHitSizesNothing:
    REQUESTS = (
        _request("ctane", 20),
        _request("dfd", 20),
        _request("fastcfd", 10),
        _request("naivefast", 10),
        _request("cfdminer", 10),
        _request("fastcfd", 10, limit_rows=80),
    )

    @pytest.mark.parametrize("max_bytes", [None, 10 ** 9])
    def test_pooled_memo_hit_and_info(self, tax150, monkeypatch, max_bytes):
        pool = SessionPool(max_sessions=4, max_bytes=max_bytes)
        other = generate_tax(60, arity=7, seed=5)
        for relation in (other, tax150):
            for request in self.REQUESTS:
                pool.session(relation).run(request).json_bytes()
        pool.info()  # the encoded covers' texts are summed here, once
        sizing = _SizingCalls(monkeypatch)
        for request in self.REQUESTS:
            pool.session(tax150).run(request).json_bytes()
        assert sizing.calls == 0
        info = pool.info()
        assert info["estimated_bytes"] == pool.estimated_bytes() > 0
        assert pool.enforce_limits() == 0
        assert sizing.calls == 0
        assert info["hits"] > 0 and info["sessions"] == 2


# ---------------------------------------------------------------------- #
# the estimate tracks the heap
# ---------------------------------------------------------------------- #
def _live_bytes(baseline: int) -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - baseline


def _ratios(relation, requests):
    """``estimated_bytes() / live bytes`` after each of ``requests``, run in
    order on one fresh session; the relation's encoding is not the
    session's, so it is built before tracing starts."""
    relation.encoded_matrix()
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        profiler = Profiler(relation)
        ratios = []
        for request in requests:
            profiler.run(request)
            ratios.append(profiler.estimated_bytes() / _live_bytes(baseline))
        return ratios
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def warmed_engines():
    """One untraced run per engine, so module-level caches and lazy imports
    do not count as session bytes."""
    for algorithm in ENGINES:
        Profiler(generate_tax(30, arity=7, seed=1)).run(_request(algorithm, 3))


class TestEstimateTracksTheHeap:
    @pytest.mark.parametrize("algorithm", ENGINES)
    def test_tax_grid(self, warmed_engines, algorithm):
        sweep = _ratios(
            generate_tax(150, arity=7, seed=3),
            [_request(algorithm, 40), _request(algorithm, 20)],
        )
        small = _ratios(generate_tax(50, arity=7, seed=3), [_request(algorithm, 10)])
        for ratio in sweep + small:
            assert 0.5 <= ratio <= 2.0, (sweep, small)

    def test_prefix_session(self, warmed_engines):
        (ratio,) = _ratios(
            generate_tax(150, arity=7, seed=3),
            [_request("fastcfd", 4, limit_rows=60)],
        )
        assert 0.5 <= ratio <= 2.0

    def test_wide_relation(self, warmed_engines):
        generator = WideRelationGenerator(n_cols=64, n_rows=96, seed=1)
        (ratio,) = _ratios(
            generator.generate(), [_request("dfd", generator.min_support)]
        )
        assert 0.5 <= ratio <= 2.0
