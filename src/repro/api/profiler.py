"""The :class:`Profiler` session and the :func:`execute` front door.

A Profiler binds to one relation and caches the expensive per-relation
structures the discovery engines share:

* the dictionary encoding / integer matrix (cached on the relation itself),
* k-frequent free/closed item-set mining results per ``(k, max_lhs_size)``
  (shared by CFDMiner and FastCFD at the same threshold),
* the closed-set difference-set provider — its 2-frequent closed-set index is
  *independent of k*, so every FastCFD run over the session reuses it no
  matter the threshold (this is what makes support sweeps like
  ``benchmarks/bench_fig08_scalability_support.py`` and sampling-based
  discovery cheap),
* the partition difference-set provider (NaiveFast) and single-attribute
  partitions, likewise k-independent.

:func:`execute` runs one :class:`~repro.api.request.DiscoveryRequest` through
the registry — with or without a session — and applies the request's rule
filters and ranking; it is the single code path behind ``repro.discover()``,
the CLI, the experiment harness, sampling and cleaning.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.api.registry import REGISTRY, AlgorithmRegistry
from repro.api.request import DiscoveryRequest
from repro.api.result import (
    AlgorithmStats,
    DiscoveryResult,
    kept_rule_text_bytes,
)
from repro.core.cfd import CFD
from repro.core.fastcfd import ClosedSetDifferenceSets, PartitionDifferenceSets
from repro.devtools.lockcheck import RANK_SESSION, ranked_lock
from repro.exceptions import DiscoveryError
from repro.itemsets.mining import FreeClosedResult, mine_free_and_closed
from repro.obs.names import (
    SPAN_ENGINE_CHECKPOINT,
    SPAN_ENGINE_RUN,
    SPAN_PROFILER_BUILD,
)
from repro.relational.relation import Relation

if False:  # pragma: no cover - typing only (import would be circular)
    from repro.relational.partition import Partition
    from repro.serve.store import CacheStore

#: ``progress(stage, done, total)`` — invoked by engines during long runs.
ProgressCallback = Callable[[str, int, int], None]


def execute(
    relation: Relation,
    request: DiscoveryRequest,
    *,
    session: Optional["Profiler"] = None,
    registry: AlgorithmRegistry = REGISTRY,
) -> DiscoveryResult:
    """Run one discovery request through the registry and post-process it.

    Without a ``session`` the engines build their structures from scratch
    (the seed behaviour, which keeps benchmark timings honest); with one they
    reuse the session's caches.  ``limit_rows``, the constant/variable
    filters and ``rank_by`` of the request are applied here so every front
    end behaves identically.

    ``elapsed_seconds`` of the result times the *whole* request — truncation,
    engine run, rule filters and ranking; the engine-only share is surfaced as
    ``engine_seconds`` in the result's stats (the seed reported engine time as
    the total, silently excluding post-processing from benchmarks and
    ``--json`` output).
    """
    start = time.perf_counter()
    root_session = session
    try:
        if request.limit_rows is not None and request.limit_rows < relation.n_rows:
            # The truncated prefix is a different relation: session caches
            # built on the full relation would be wrong (or crash) here.
            # With a session the run is served by a pooled prefix sub-session
            # (keyed by limit_rows, so sampling re-runs reuse its caches);
            # without one the prefix is profiled one-shot.
            if session is not None:
                session = session.prefix_session(request.limit_rows)
                relation = session.relation
            else:
                relation = relation.head(request.limit_rows)
            request = request.replace(limit_rows=None)
        name = request.algorithm
        if name == "auto":
            name = registry.select(relation, request)
        engine = registry.create(name)
        unknown = sorted(set(request.options_dict) - set(engine.request_options))
        if unknown:
            accepted = ", ".join(engine.request_options) or "none"
            raise DiscoveryError(
                f"algorithm {name!r} does not accept option(s) "
                f"{', '.join(unknown)} (accepted: {accepted})"
            )
        if request.variable_only and not engine.capabilities.variable_cfds:
            raise DiscoveryError(
                f"algorithm {name!r} emits no variable CFDs but the request is "
                "variable-only"
            )

        engine_start = time.perf_counter()
        with obs.get_tracer().start_span(SPAN_ENGINE_RUN, algorithm=name) as span:
            if session is not None:
                cfds, stats = session.engine_result(
                    name,
                    request,
                    lambda: engine.run(relation, request, session),
                )
            else:
                cfds, stats = engine.run(relation, request, session)
            span.set_attr("rules", len(cfds))
        engine_elapsed = time.perf_counter() - engine_start

        # The cached engine result is shared across runs; never mutate it.
        stats = dataclasses.replace(stats, extras=dict(stats.extras))
        cfds = list(cfds)
        if request.constant_only:
            cfds = [cfd for cfd in cfds if cfd.is_constant]
        elif request.variable_only:
            cfds = [cfd for cfd in cfds if cfd.is_variable]
        if request.rank_by is not None:
            from repro.core.measures import rank_by_interest

            cfds = rank_by_interest(relation, cfds, key=request.rank_by)

        stats.extras["engine_seconds"] = engine_elapsed
        return DiscoveryResult(
            algorithm=name,
            cfds=cfds,
            min_support=request.min_support,
            elapsed_seconds=time.perf_counter() - start,
            relation_size=relation.n_rows,
            relation_arity=relation.arity,
            extra=stats.as_dict(),
            stats=stats,
        )
    finally:
        if root_session is not None:
            # The run may have grown the session's caches: give observers
            # (the serving pool's byte accounting) a synchronous signal.
            root_session._notify_run_complete()


def discover(
    relation: Relation,
    min_support: int = 1,
    *,
    algorithm: str = "auto",
    max_lhs_size: Optional[int] = None,
    **options: object,
) -> DiscoveryResult:
    """Discover a canonical cover of minimal k-frequent CFDs, one-shot.

    The keyword-style front end of :func:`execute` without a session (the
    seed API): ``algorithm`` is a registered name or ``"auto"``,
    ``max_lhs_size`` caps the LHS size and ``options`` go to the engine's
    constructor.
    """
    request = DiscoveryRequest.from_keywords(
        min_support, algorithm=algorithm, max_lhs_size=max_lhs_size, **options
    )
    return execute(relation, request)


#: Rough bytes per encoded item / closure entry in the free/closed estimates.
_EST_ITEM_BYTES = 64

#: Heap bytes a free item set holds beyond its tid-list data and its items:
#: its object, the tid-list header and its entries in the mining result's
#: free-set, C2F and closed-support maps.
_FREE_SET_ENTRY_BYTES = 640

#: Heap bytes a cached partition holds beyond its arrays' ``nbytes``: the
#: partition object, its array headers and its cache-dict slot and key.
_PARTITION_ENTRY_BYTES = 460

# Both entry constants are calibrated against tracemalloc's live bytes
# (tests/serve/test_byte_accounting.py holds the estimate to [0.5, 2]x).

#: How many prefix sub-sessions (distinct truncating ``limit_rows`` values)
#: one session keeps warm; least recently used ones are dropped beyond this.
MAX_PREFIX_SESSIONS = 4

#: How many engine runs (canonical covers per engine configuration) one
#: session memoises; least recently used entries are dropped beyond this.
MAX_ENGINE_RESULTS = 64

#: Byte budget of the session's pattern-partition cache (the CTANE lattice
#: partitions).  Insertions beyond the budget are silently refused — the
#: cache is an accelerator, never a correctness dependency.
PATTERN_PARTITION_BUDGET_BYTES = 64 * 2 ** 20

#: The engine-configuration cache key of :meth:`Profiler.engine_result`.
EngineKey = Tuple[str, int, Optional[int], Tuple[Tuple[str, object], ...]]


def _mining_bytes(result: FreeClosedResult) -> int:
    """The byte charge of one free/closed mining result."""
    total = 0
    for free in result.free_sets.values():
        total += int(free.tids.nbytes) + _FREE_SET_ENTRY_BYTES
        total += _EST_ITEM_BYTES * (len(free.items) + len(free.closure))
    return total


class Profiler:
    """A discovery session over one relation with shared structure caches.

    Sessions are **thread-safe**: one reentrant lock guards the cache
    dictionaries and the hit/miss counters, so concurrent :meth:`run` calls
    (a parallel support sweep through the serving layer) build each shared
    structure exactly once.  The expensive builds (item-set mining, the
    difference-set providers) run *outside* the lock behind per-key futures:
    the first thread pays the miss and builds, same-key callers wait on that
    build's future, and builds for **distinct** keys proceed in parallel —
    a cold 4-thread sweep mines its four thresholds concurrently.

    Examples
    --------
    >>> from repro.relational.relation import Relation
    >>> r = Relation.from_rows(
    ...     ["AC", "CT"],
    ...     [("908", "MH"), ("908", "MH"), ("212", "NYC")],
    ... )
    >>> profiler = Profiler(r)
    >>> low = profiler.run(DiscoveryRequest(min_support=1, algorithm="fastcfd"))
    >>> high = profiler.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
    >>> profiler.cache_info()["closed_difference_sets"]["hits"]
    1
    """

    def __init__(
        self,
        relation: Relation,
        *,
        progress: Optional[ProgressCallback] = None,
        registry: AlgorithmRegistry = REGISTRY,
        faults: Optional[object] = None,
    ):
        self._relation = relation
        self._registry = registry
        self.progress = progress
        #: Optional :class:`~repro.serve.faults.FaultPlan` threaded down from
        #: the serving layer; the engine checkpoint hook visits it so chaos
        #: drills can kill/fail a run right after a level checkpoint.
        self._faults = faults
        #: Optional :class:`~repro.serve.store.CacheStore` the session writes
        #: its mid-run engine checkpoints through (see :meth:`attach_store`).
        self._attached_store: Optional["CacheStore"] = None
        #: In-memory engine checkpoints keyed by canonical params (the
        #: in-process resume path; the attached store is the durable one).
        self._checkpoints: Dict[Tuple, Dict] = {}
        self._lock = ranked_lock(RANK_SESSION, "Profiler._lock", reentrant=True)
        # Expensive structures are cached as futures: lookup/insert happens
        # under the lock, the build itself outside it (see _get_or_build).
        self._free_closed: Dict[Tuple[int, Optional[int]], "Future[FreeClosedResult]"] = {}
        self._providers: Dict[str, Future] = {}
        self._partitions: Dict[Tuple[int, ...], "Partition"] = {}
        self._pattern_partitions: Dict[Tuple, "Partition"] = {}
        self._pattern_bytes = 0
        #: Running byte total of the mining results and attribute partitions,
        #: charged as each lands (see :meth:`estimated_bytes`).
        self._bytes = 0
        self._engine_results: "OrderedDict[EngineKey, Future]" = OrderedDict()
        #: Kept-text bytes of the memoised covers whose every rule has one.
        self._memo_text_bytes: Dict[EngineKey, int] = {}
        self._prefix_sessions: "OrderedDict[int, Profiler]" = OrderedDict()
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self._build_seconds: Dict[str, float] = {}
        self._run_listeners: List[Callable[["Profiler"], None]] = []

    # ------------------------------------------------------------------ #
    @property
    def relation(self) -> Relation:
        """The profiled relation."""
        return self._relation

    def _count(self, cache: str, hit: bool) -> None:
        bucket = self._hits if hit else self._misses
        bucket[cache] = bucket.get(cache, 0) + 1

    def _get_or_build(self, cache: str, store: Dict, key, build, size=None):
        """Serve ``store[key]``, building it at most once, outside the lock.

        The lock is held only to look up or insert the future; the first
        caller (the one who inserted it) runs ``build()`` unlocked, so
        builds for distinct keys proceed in parallel while same-key callers
        wait on the shared future.  Failed builds are evicted so a later
        call can retry.  ``size(result)``, when given, is charged to the
        session's byte total once the build completes.
        """
        with self._lock:
            future = store.get(key)
            if (
                future is not None
                and future.done()
                and future.exception() is not None
            ):
                # Defensive re-check: a failed build is evicted by its
                # builder below, but any path that leaves an errored future
                # installed (a racing eviction, an overwritten key) would
                # poison this key until process restart — evict and rebuild.
                del store[key]
                future = None
            if future is not None:
                self._count(cache, hit=True)
                is_builder = False
            else:
                self._count(cache, hit=False)
                future = Future()
                store[key] = future
                is_builder = True
        if not is_builder:
            return future.result()
        try:
            build_start = time.perf_counter()
            with obs.get_tracer().start_span(SPAN_PROFILER_BUILD, cache=cache):
                result = build()
            build_elapsed = time.perf_counter() - build_start
        except BaseException as exc:
            with self._lock:
                if store.get(key) is future:
                    del store[key]
            future.set_exception(exc)
            raise
        charge = size(result) if size is not None else 0
        with self._lock:
            self._build_seconds[cache] = (
                self._build_seconds.get(cache, 0.0) + build_elapsed
            )
            self._bytes += charge
        future.set_result(result)
        return result

    # ------------------------------------------------------------------ #
    # cached per-relation structures
    # ------------------------------------------------------------------ #
    def free_closed(
        self, min_support: int, max_lhs_size: Optional[int] = None
    ) -> FreeClosedResult:
        """The k-frequent free/closed mining result (cached per threshold)."""
        return self._get_or_build(
            "free_closed",
            self._free_closed,
            (min_support, max_lhs_size),
            lambda: mine_free_and_closed(
                self._relation, min_support=min_support, max_size=max_lhs_size
            ),
            size=_mining_bytes,
        )

    def closed_difference_sets(self) -> ClosedSetDifferenceSets:
        """The FastCFD difference-set provider (k-independent, cached once).

        The provider is built from the session's 2-frequent closed item sets,
        so the first FastCFD run pays for the index and every later run —
        at *any* support threshold — reuses it, including its per-query
        difference-set cache.
        """
        return self._get_or_build(
            "closed_difference_sets",
            self._providers,
            "closed",
            lambda: ClosedSetDifferenceSets(
                self._relation, closed_result=self.free_closed(2)
            ),
        )

    def partition_difference_sets(self) -> PartitionDifferenceSets:
        """The NaiveFast difference-set provider (k-independent, cached once)."""
        return self._get_or_build(
            "partition_difference_sets",
            self._providers,
            "partition",
            lambda: PartitionDifferenceSets(self._relation),
        )

    def attribute_partition(self, attributes: Sequence[object]) -> "Partition":
        """The equivalence-class partition by ``attributes`` (names or indices, cached)."""
        from repro.relational.partition import attribute_partition

        key = tuple(sorted(self._relation.schema.indices_of(attributes)))
        with self._lock:
            cached = self._partitions.get(key)
            if cached is not None:
                self._count("attribute_partitions", hit=True)
                return cached
            self._count("attribute_partitions", hit=False)
            build_start = time.perf_counter()
            partition = attribute_partition(self._relation.encoded_matrix(), key)
            # Engines read the covered views of every cached partition, so
            # they are built now and the charge below is the partition's
            # lasting size.
            partition.covered_index
            self._build_seconds["attribute_partitions"] = (
                self._build_seconds.get("attribute_partitions", 0.0)
                + time.perf_counter()
                - build_start
            )
            self._partitions[key] = partition
            self._bytes += partition.nbytes + _PARTITION_ENTRY_BYTES
            return partition

    # ------------------------------------------------------------------ #
    # engine-result memoisation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _engine_key(algorithm: str, request: DiscoveryRequest) -> EngineKey:
        """The engine-configuration key: everything that shapes engine output.

        Post-processing knobs (rule filters, ranking, tableau grouping) are
        deliberately excluded — they are applied per request on top of the
        cached cover, so a ``constant_only`` replay of a previous full run is
        still a cache hit.
        """
        return (algorithm, request.min_support, request.max_lhs_size, request.options)

    def engine_result(
        self, algorithm: str, request: DiscoveryRequest, build: Callable
    ) -> Tuple[Tuple[CFD, ...], AlgorithmStats]:
        """The memoised engine run for this configuration (built at most once).

        ``build`` must return the engine's ``(cfds, stats)``; the cover is
        frozen to a tuple so every caller shares one immutable copy.  Entries
        are LRU-bounded at :data:`MAX_ENGINE_RESULTS`.  Like every future-
        backed session cache, concurrent identical requests coalesce onto a
        single engine run — the across-time completion of the serving
        layer's in-flight deduplication.
        """
        key = self._engine_key(algorithm, request)

        def run_engine():
            cfds, stats = build()
            return tuple(cfds), stats

        result = self._get_or_build(
            "engine_results", self._engine_results, key, run_engine
        )
        with self._lock:
            if key in self._engine_results:
                self._engine_results.move_to_end(key)
            while len(self._engine_results) > MAX_ENGINE_RESULTS:
                evicted, _ = self._engine_results.popitem(last=False)
                self._memo_text_bytes.pop(evicted, None)
        return result

    # ------------------------------------------------------------------ #
    # pattern partitions (the CTANE lattice substrate)
    # ------------------------------------------------------------------ #
    def cached_pattern_partition(self, key: Tuple) -> Optional["Partition"]:
        """The cached CTANE pattern partition ``Π(X, sp)`` for an element key.

        ``key`` is the lattice element ``(attribute_indices, pattern_codes)``
        with integer codes and :data:`~repro.core.pattern.WILDCARD` entries.
        Pattern partitions are support-independent, so a sweep at a new
        threshold re-reads the partitions mined by earlier runs.
        """
        with self._lock:
            partition = self._pattern_partitions.get(key)
            self._count("pattern_partitions", hit=partition is not None)
            return partition

    def store_pattern_partition(self, key: Tuple, partition: "Partition") -> bool:
        """Record a derived pattern partition; ``False`` if the budget is full.

        The cache is bounded by :data:`PATTERN_PARTITION_BUDGET_BYTES`;
        beyond it new partitions are simply not retained (CTANE keeps its own
        per-run references, so refusing an insert never affects results).
        """
        with self._lock:
            if key in self._pattern_partitions:
                return True
            nbytes = partition.nbytes
            if self._pattern_bytes + nbytes > PATTERN_PARTITION_BUDGET_BYTES:
                return False
            self._pattern_partitions[key] = partition
            self._pattern_bytes += nbytes
            return True

    # ------------------------------------------------------------------ #
    # engine checkpoints (crash-safe resumable CTANE runs)
    # ------------------------------------------------------------------ #
    def attach_store(self, store: Optional["CacheStore"]) -> None:
        """Bind the persistent store the engine checkpoints write through.

        The serving pool attaches its store on admission; one-shot CLI runs
        attach theirs before :meth:`run`.  With a store attached, every
        lattice level a CTANE run completes is durably checkpointed, so a
        killed process (crash, deadline, drain, chaos drill) resumes from
        the last completed level — on this worker or, via a shared cache
        directory, on the fleet successor a failover lands on.
        """
        with self._lock:
            self._attached_store = store

    def ctane_checkpoint(self, params: Dict[str, object]) -> "_CTaneCheckpoint":
        """The engine's checkpoint handle for one traversal configuration."""
        return _CTaneCheckpoint(self, params)

    def checkpoint_info(self) -> Dict[str, int]:
        """Counters of the in-memory engine checkpoints (observability)."""
        with self._lock:
            return {"entries": len(self._checkpoints)}

    # ------------------------------------------------------------------ #
    # build-cost accounting and run observers
    # ------------------------------------------------------------------ #
    def build_seconds(self) -> Dict[str, float]:
        """Observed build seconds per cache bucket (engine runs included).

        Warm-started sessions inherit the build cost recorded when the
        structures were dumped (see :meth:`warm_from`), so the serving pool's
        cost-aware eviction ranks them by what a cold rebuild would cost.
        """
        with self._lock:
            return dict(self._build_seconds)

    def build_seconds_total(self) -> float:
        """Summed observed build cost — the pool's rebuild-cost score."""
        with self._lock:
            return float(sum(self._build_seconds.values()))

    def add_run_listener(self, listener: Callable[["Profiler"], None]) -> None:
        """Register a callback fired after every :func:`execute` over this
        session (the serving pool refreshes its byte accounting with it)."""
        with self._lock:
            self._run_listeners.append(listener)

    def _notify_run_complete(self) -> None:
        with self._lock:
            if not self._run_listeners:
                return
            listeners = list(self._run_listeners)
        for listener in listeners:
            listener(self)

    def prefix_session(self, limit_rows: int) -> "Profiler":
        """A pooled sub-session over the first ``limit_rows`` tuples.

        A truncating ``limit_rows`` profiles a different relation, so it can
        never share this session's caches — but repeating the same truncation
        (sampling re-runs, paging front ends) used to rebuild everything from
        scratch each time.  Prefix sub-sessions are cached per ``limit_rows``
        and tracked as the ``prefix_sessions`` bucket of :meth:`cache_info`;
        at most :data:`MAX_PREFIX_SESSIONS` distinct limits stay warm (LRU),
        so a front end sweeping many limits cannot grow the session without
        bound.  A non-truncating limit returns this session itself
        (uncounted).
        """
        with self._lock:
            if limit_rows >= self._relation.n_rows:
                return self
            cached = self._prefix_sessions.get(limit_rows)
            if cached is not None:
                self._prefix_sessions.move_to_end(limit_rows)
                self._count("prefix_sessions", hit=True)
                return cached
            self._count("prefix_sessions", hit=False)
            prefix = Profiler(
                self._relation.head(limit_rows),
                progress=self.progress,
                registry=self._registry,
                faults=self._faults,
            )
            self._prefix_sessions[limit_rows] = prefix
            while len(self._prefix_sessions) > MAX_PREFIX_SESSIONS:
                self._prefix_sessions.popitem(last=False)
            return prefix

    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/size counters of every session cache."""
        with self._lock:
            sizes = {
                "free_closed": len(self._free_closed),
                "closed_difference_sets": int("closed" in self._providers),
                "partition_difference_sets": int("partition" in self._providers),
                "attribute_partitions": len(self._partitions),
                "pattern_partitions": len(self._pattern_partitions),
                "engine_results": len(self._engine_results),
                "prefix_sessions": len(self._prefix_sessions),
            }
            info: Dict[str, Dict[str, int]] = {}
            for cache, size in sizes.items():
                info[cache] = {
                    "hits": self._hits.get(cache, 0),
                    "misses": self._misses.get(cache, 0),
                    "size": size,
                }
            return info

    @staticmethod
    def _completed(future: Future):
        """The future's result if it finished successfully, else ``None``."""
        if future.done() and future.exception() is None:
            return future.result()
        return None

    def estimated_bytes(self) -> int:
        """Approximate heap bytes held by the session's caches.

        A running total, charged as each structure lands and never walked:
        a mining result when its build completes or :meth:`warm_from`
        installs it, an attribute partition (its covered views built) or a
        pattern partition when it is cached.  Numpy arrays count their
        ``nbytes``, each cached partition :data:`_PARTITION_ENTRY_BYTES`
        more, and pure-Python structures (item sets, posting lists) coarse
        per-item constants.  The difference-set providers keep their own
        totals.  A memoised cover counts ``256 + 96`` bytes per rule plus
        the heap size of the rule texts its answers have kept on it
        (:func:`~repro.api.result.rule_json_text`), summed once every rule
        has one.  Structures still being built count as zero until their
        future completes.  Prefix sub-sessions are included, so the serving
        layer's :class:`~repro.serve.SessionPool` can budget a whole session
        tree with one call.  The read is O(1) per cache table: at most two
        providers, :data:`MAX_ENGINE_RESULTS` memoised covers and
        :data:`MAX_PREFIX_SESSIONS` prefix sessions.
        """
        with self._lock:
            total = (
                256  # the session object itself
                + self._bytes
                + self._pattern_bytes
                + _PARTITION_ENTRY_BYTES * len(self._pattern_partitions)
            )
            providers = [self._completed(f) for f in self._providers.values()]
            memo = [
                (key, future, self._memo_text_bytes.get(key))
                for key, future in self._engine_results.items()
            ]
            prefixes = list(self._prefix_sessions.values())
        for provider in providers:
            if provider is not None:
                total += provider.estimated_bytes()
        for key, future, text_bytes in memo:
            entry = self._completed(future)
            if entry is None:
                continue
            cfds, _ = entry
            if text_bytes is None:
                text_bytes, complete = kept_rule_text_bytes(cfds)
                if complete:
                    # Kept texts never change: a fully encoded cover is
                    # summed once.
                    with self._lock:
                        if self._engine_results.get(key) is future:
                            self._memo_text_bytes[key] = text_bytes
            total += 256 + 96 * len(cfds) + text_bytes
        for prefix in prefixes:
            total += prefix.estimated_bytes()
        return total

    # ------------------------------------------------------------------ #
    # persistence: dump to / warm from a CacheStore
    # ------------------------------------------------------------------ #
    def _restore_build_seconds(self, bucket: str, seconds: float) -> None:
        if not seconds:
            return
        with self._lock:
            self._build_seconds[bucket] = max(
                self._build_seconds.get(bucket, 0.0), seconds
            )

    @staticmethod
    def _completed_future(value) -> Future:
        future: Future = Future()
        future.set_result(value)
        return future

    @staticmethod
    def _bucket(kind: str, key) -> str:
        """The :meth:`cache_info` bucket of one persisted structure: the
        kind's name, except that each provider has its own bucket."""
        from repro.serve.store import KIND_DIFFERENCE_SETS

        return f"{key}_difference_sets" if kind == KIND_DIFFERENCE_SETS else kind

    def dump_caches(self, store: "CacheStore") -> int:
        """Spill every completed structure worth persisting into ``store``.

        One entry per ``(fingerprint, kind, params)`` key: free/closed mining
        results per threshold, each difference-set provider's query cache,
        and every memoised engine result whose cover survives a JSON round
        trip byte-identically.  Partitions are cheaper to rebuild than read.
        Returns the number of entries written; structures still being built
        (pending futures) are skipped.  Raises
        :class:`~repro.exceptions.CacheStoreError` on write failures.
        """
        from repro.serve import store as sf

        with self._lock:
            build = dict(self._build_seconds)
            structures = [
                (sf.KIND_FREE_CLOSED, key, self._completed(future))
                for key, future in self._free_closed.items()
            ] + [
                (sf.KIND_ENGINE_RESULTS, key, self._completed(future))
                for key, future in self._engine_results.items()
            ]
            providers = {k: self._completed(f) for k, f in self._providers.items()}
        # Providers export outside the session lock: they take their own.
        for name, provider in providers.items():
            if provider is not None:
                exported = provider.export_cache()
                structures.append((sf.KIND_DIFFERENCE_SETS, name, exported))
        fingerprint = self._relation.fingerprint()
        written = 0
        for kind, key, value in structures:
            if value is not None:
                written += sf.dump_structure(
                    store, fingerprint, kind, key, value,
                    build_seconds=build.get(self._bucket(kind, key), 0.0),
                )
        store.enforce_budget()
        return written

    def warm_from(self, store: "CacheStore") -> int:
        """Pre-seed the session caches from ``store``; returns entries loaded.

        Every malformed, truncated, version- or fingerprint-mismatched entry
        is skipped (the session simply stays cold for that structure) — a
        damaged store can never fail a request.  Structures the session
        already holds are left untouched.
        """
        from repro.serve import store as sf

        loaded = 0
        for kind, key, value, seconds in sf.load_structures(
            store, self._relation.fingerprint()
        ):
            if kind == sf.KIND_FREE_CLOSED:
                charge = _mining_bytes(value)
                with self._lock:
                    if key not in self._free_closed:
                        self._free_closed[key] = self._completed_future(value)
                        self._bytes += charge
            elif kind == sf.KIND_DIFFERENCE_SETS:
                if not self._warm_provider(key, value):
                    continue
            elif kind == sf.KIND_ENGINE_RESULTS:
                with self._lock:
                    if (
                        key not in self._engine_results
                        and len(self._engine_results) < MAX_ENGINE_RESULTS
                    ):
                        self._engine_results[key] = self._completed_future(value)
            self._restore_build_seconds(self._bucket(kind, key), seconds)
            loaded += 1
        return loaded

    def _warm_provider(self, name: str, query_cache) -> bool:
        """Install one persisted difference-set provider; ``False`` to skip."""
        with self._lock:
            existing = self._providers.get(name)
            mining = self._free_closed.get((2, None))
        if existing is not None:
            provider = self._completed(existing)
        elif name == "closed":
            # The closed-set provider is an index over the 2-frequent closed
            # item sets; rebuild it from the (already loaded) mining entry
            # rather than persisting the derived index itself.
            closed_result = self._completed(mining) if mining is not None else None
            if closed_result is None:
                return False
            provider = ClosedSetDifferenceSets(
                self._relation, closed_result=closed_result
            )
        elif name == "partition":
            provider = PartitionDifferenceSets(self._relation)
        else:
            provider = None
        if provider is None:
            return False
        provider.import_cache(query_cache)
        if existing is None:
            with self._lock:
                self._providers.setdefault(name, self._completed_future(provider))
        return True

    # ------------------------------------------------------------------ #
    # running requests
    # ------------------------------------------------------------------ #
    def run(self, request: DiscoveryRequest) -> DiscoveryResult:
        """Execute one request against the session's relation and caches.

        A truncating ``limit_rows`` profiles a different relation, so
        :func:`execute` serves it from a pooled :meth:`prefix_session`
        instead of using (or poisoning) this session's own caches.
        """
        return execute(
            self._relation, request, session=self, registry=self._registry
        )

    def discover(
        self,
        min_support: int = 1,
        *,
        algorithm: str = "auto",
        max_lhs_size: Optional[int] = None,
        **options: object,
    ) -> DiscoveryResult:
        """Keyword-style convenience wrapper around :meth:`run`."""
        return self.run(
            DiscoveryRequest.from_keywords(
                min_support, algorithm=algorithm, max_lhs_size=max_lhs_size, **options
            )
        )


class _CTaneCheckpoint:
    """The engine-facing checkpoint handle (``load``/``save``/``clear``).

    In-memory state lives on the owning :class:`Profiler` (in-process
    resume after an injected engine error); with a store attached via
    :meth:`Profiler.attach_store` every save also writes through durably —
    best-effort, because a failing store must degrade the *resume*, never
    the run.  After the durable save the ``engine.level`` fault point is
    visited, so chaos drills kill or fail a run at exactly the moment the
    checkpoint guarantees the completed levels are safe.
    """

    def __init__(self, profiler: Profiler, params: Dict[str, object]):
        self._profiler = profiler
        self._key = tuple(sorted(params.items()))
        self._params = params

    def load(self) -> Optional[Dict]:
        profiler = self._profiler
        with profiler._lock:
            state = profiler._checkpoints.get(self._key)
            store = profiler._attached_store
        if state is not None:
            return state
        if store is None:
            return None
        from repro.serve import store as sf

        return sf.load_structure(
            store, profiler._relation.fingerprint(), sf.KIND_CTANE_CHECKPOINT,
            self._params,
        )

    def save(self, state: Dict) -> None:
        profiler = self._profiler
        with profiler._lock:
            profiler._checkpoints[self._key] = state
            store = profiler._attached_store
        if store is not None:
            from repro.exceptions import CacheStoreError
            from repro.serve import store as sf

            with obs.get_tracer().start_span(
                SPAN_ENGINE_CHECKPOINT, level=state.get("size")
            ) as span:
                try:
                    sf.dump_structure(
                        store, profiler._relation.fingerprint(),
                        sf.KIND_CTANE_CHECKPOINT, self._params, state,
                    )
                except CacheStoreError:
                    # Resume stays in-memory only; the run must not fail.
                    span.set_status("error", error="CacheStoreError")
        faults = profiler._faults
        if faults is not None:
            # Local import: serve -> pool -> profiler already forms the
            # module import chain, so the constant cannot come in at the top.
            from repro.serve.faults import FAULT_POINT_ENGINE_LEVEL

            faults.visit(FAULT_POINT_ENGINE_LEVEL)

    def clear(self) -> None:
        profiler = self._profiler
        with profiler._lock:
            profiler._checkpoints.pop(self._key, None)
            store = profiler._attached_store
        if store is not None:
            from repro.serve import store as sf

            store.delete(
                profiler._relation.fingerprint(),
                sf.KIND_CTANE_CHECKPOINT,
                self._params,
            )


__all__ = ["ProgressCallback", "Profiler", "discover", "execute"]
