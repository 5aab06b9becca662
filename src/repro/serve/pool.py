"""The multi-relation session pool: fingerprint → :class:`Profiler`, with
cost-aware eviction, memory accounting and optional persistent spill.

A :class:`SessionPool` is the serving layer's working set: every relation a
front end profiles gets one pooled :class:`~repro.api.Profiler` session, so
support sweeps, sampling re-runs and repeated requests over the same data
share the session's structure caches across *callers*, not just within one.
The pool is bounded two ways:

* ``max_sessions`` — a capacity cap enforced on insertion;
* ``max_bytes`` — a budget over the sessions' estimated cache footprints
  (:meth:`~repro.api.Profiler.estimated_bytes`), re-checked by
  :meth:`enforce_limits` after runs grow the caches.  The pool registers a
  run listener on every session it creates, so the byte accounting refreshes
  after **every** executed request — eviction decisions never run on stale
  figures from before a request grew a session's caches.  Reading a
  session's figure is O(1): each session keeps a running total, charged as
  its cache entries land, so the refresh after a memoised answer, the
  ``/healthz`` and ``/metrics`` reads of :meth:`info` and every
  :meth:`enforce_limits` size nothing per cached item.

Eviction is **cost-aware**: the victim is the session whose caches were
cheapest to build (:meth:`~repro.api.Profiler.build_seconds_total` — the
observed rebuild cost), with least-recently-used order as the tiebreak, and
the most recently used session is never evicted.  A pool under pressure
therefore sheds the sessions that are fastest to rebuild instead of blindly
dropping old-but-expensive ones.  Eviction only drops the pool's reference —
callers holding an evicted session keep a fully functional (just no longer
shared) ``Profiler``, so in-flight runs are never disturbed.

With a persistent :class:`~repro.serve.store.CacheStore` attached
(``store=``), the pool becomes restart-proof: evicted sessions spill their
caches into the store first, and newly admitted sessions warm-start from it
— which is also how multiple worker processes share one warm substrate.

All operations are thread-safe behind one pool lock; the lock order is
pool → session and nothing ever takes them the other way around.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import obs
from repro.api.profiler import ProgressCallback, Profiler
from repro.api.registry import REGISTRY, AlgorithmRegistry
from repro.devtools.lockcheck import RANK_POOL, ranked_lock
from repro.exceptions import CacheStoreError, DiscoveryError
from repro.obs.names import SPAN_POOL_ADMIT, SPAN_POOL_EVICT, SPAN_POOL_SPILL
from repro.relational.relation import Relation
from repro.serve.faults import FaultPlan
from repro.serve.fingerprint import relation_fingerprint
from repro.serve.store import CacheStore


@dataclass
class _PooledSession:
    """One pool entry: the session plus its bookkeeping."""

    fingerprint: str
    profiler: Profiler
    uses: int = 1
    estimated_bytes: int = 0


class SessionPool:
    """Cost-aware, byte-budgeted pool of per-relation ``Profiler`` sessions.

    Parameters
    ----------
    max_sessions:
        Maximum number of live sessions (``None`` for unbounded).
    max_bytes:
        Budget over the summed :meth:`~repro.api.Profiler.estimated_bytes`
        of the pooled sessions (``None`` for unbounded).  The most recently
        used session is never evicted, even when it alone exceeds the
        budget — a pool that cannot hold one session cannot serve at all.
    store:
        Optional :class:`~repro.serve.store.CacheStore`.  Evicted sessions
        spill their caches into it and admitted sessions warm-start from it,
        so pooled warmth survives process restarts and is shared between
        workers.
    progress / registry:
        Forwarded to every :class:`~repro.api.Profiler` the pool creates.
    """

    def __init__(
        self,
        max_sessions: Optional[int] = 8,
        *,
        max_bytes: Optional[int] = None,
        store: Optional[CacheStore] = None,
        progress: Optional[ProgressCallback] = None,
        registry: AlgorithmRegistry = REGISTRY,
        faults: Optional["FaultPlan"] = None,
    ):
        if max_sessions is not None and max_sessions < 1:
            raise DiscoveryError("max_sessions must be at least 1 (or None)")
        if max_bytes is not None and max_bytes < 1:
            raise DiscoveryError("max_bytes must be at least 1 (or None)")
        self._max_sessions = max_sessions
        self._max_bytes = max_bytes
        self._store = store
        self._faults = faults
        self._progress = progress
        self._registry = registry
        self._lock = ranked_lock(RANK_POOL, "SessionPool._lock", reentrant=True)
        self._entries: "OrderedDict[str, _PooledSession]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._spills = 0
        self._spill_failures = 0
        self._warm_loads = 0

    # ------------------------------------------------------------------ #
    @property
    def store(self) -> Optional[CacheStore]:
        """The attached persistent cache store (``None`` when in-memory only)."""
        return self._store

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def session(
        self, relation: Relation, *, fingerprint: Optional[str] = None
    ) -> Profiler:
        """The pooled session for ``relation`` (created on first use).

        Every call refreshes the relation's LRU position.  ``fingerprint``
        lets callers that already digested the relation skip recomputing it.
        A newly created session warm-starts from the attached store (when one
        is configured and holds entries for this relation).
        """
        key = fingerprint if fingerprint is not None else relation_fingerprint(relation)
        # The admit span is discarded on a pool hit — only a genuine
        # admission (create + enforce + spill + warm) is worth a span.
        with obs.get_tracer().start_span(SPAN_POOL_ADMIT, fingerprint=key) as span:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    entry.uses += 1
                    self._hits += 1
                    span.discard()
                    return entry.profiler
                self._misses += 1
                profiler = Profiler(
                    relation,
                    progress=self._progress,
                    registry=self._registry,
                    faults=self._faults,
                )
                # Write-through engine checkpoints: a long CTANE run killed
                # mid-lattice resumes from its last completed level — on this
                # worker or (shared cache dir) on a failover successor.
                profiler.attach_store(self._store)
                # Refresh this entry's bytes after every run the session serves,
                # wherever the run enters from (service, direct profiler.run,
                # experiment sweeps) — see the module docstring.
                profiler.add_run_listener(
                    lambda _profiler, key=key: self._after_run(key)
                )
                self._entries[key] = _PooledSession(fingerprint=key, profiler=profiler)
                evicted = self._enforce_locked()
            # Disk I/O happens outside the pool lock so one admission never
            # serializes the serving thread pool behind the store.  The session
            # is already visible (cold) to concurrent callers while it warms;
            # warm_from only fills caches they have not started building.
            self._spill_entries(evicted)
            loaded = 0
            if self._store is not None:
                try:
                    loaded = profiler.warm_from(self._store)
                except (CacheStoreError, OSError):
                    loaded = 0
                if loaded:
                    with self._lock:
                        self._warm_loads += loaded
            span.set_attr("warm_loaded", loaded)
            return profiler

    def _after_run(self, fingerprint: str) -> None:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return  # evicted while the run was in flight
            entry.estimated_bytes = entry.profiler.estimated_bytes()
            evicted = self._enforce_locked()
        self._spill_entries(evicted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: object) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def fingerprints(self) -> List[str]:
        """The pooled fingerprints, least recently used first."""
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------------ #
    # memory accounting and eviction
    # ------------------------------------------------------------------ #
    def estimated_bytes(self) -> int:
        """Summed byte estimate of every pooled session (refreshed now)."""
        with self._lock:
            total = 0
            for entry in self._entries.values():
                entry.estimated_bytes = entry.profiler.estimated_bytes()
                total += entry.estimated_bytes
            return total

    def enforce_limits(self) -> int:
        """Re-check both caps and evict sessions until satisfied.

        Sessions grow *after* insertion (each run warms more caches); the
        pool's run listeners call this automatically after every executed
        request, and external callers may re-check at any time.  Returns the
        number of sessions evicted.
        """
        with self._lock:
            evicted = self._enforce_locked()
        self._spill_entries(evicted)
        return len(evicted)

    def _pick_victim_locked(self) -> str:
        """The eviction victim: cheapest observed build cost, LRU tiebreak.

        The most recently used session is exempt whenever any other session
        exists, preserving the guarantee that the session currently being
        served never vanishes under its caller.
        """
        keys = list(self._entries)
        candidates = keys[:-1] if len(keys) > 1 else keys
        index = min(
            range(len(candidates)),
            key=lambda i: (
                self._entries[candidates[i]].profiler.build_seconds_total(),
                i,
            ),
        )
        return candidates[index]

    def _evict_one_locked(self) -> _PooledSession:
        entry = self._entries.pop(self._pick_victim_locked())
        self._evictions += 1
        return entry

    def _spill_entries(self, entries: List[_PooledSession]) -> None:
        """Spill evicted sessions into the store — outside the pool lock.

        Spill is best-effort: a full disk or unwritable store must never
        turn an eviction into a request failure.
        """
        if not entries:
            return
        with obs.get_tracer().start_span(SPAN_POOL_EVICT, sessions=len(entries)):
            if self._store is None:
                return
            for entry in entries:
                with obs.get_tracer().start_span(
                    SPAN_POOL_SPILL, fingerprint=entry.fingerprint
                ) as span:
                    try:
                        written = entry.profiler.dump_caches(self._store)
                    except (CacheStoreError, OSError) as exc:
                        span.set_status("error", error=type(exc).__name__)
                        with self._lock:
                            self._spill_failures += 1
                        continue
                    span.set_attr("entries", written)
                with self._lock:
                    self._spills += written

    def _enforce_locked(self) -> List[_PooledSession]:
        """Evict until both caps hold; returns the entries to be spilled."""
        evicted: List[_PooledSession] = []
        while (
            self._max_sessions is not None
            and len(self._entries) > self._max_sessions
        ):
            evicted.append(self._evict_one_locked())
        if self._max_bytes is None:
            return evicted
        total = 0
        for entry in self._entries.values():
            entry.estimated_bytes = entry.profiler.estimated_bytes()
            total += entry.estimated_bytes
        while total > self._max_bytes and len(self._entries) > 1:
            victim = self._evict_one_locked()
            total -= victim.estimated_bytes
            evicted.append(victim)
        return evicted

    def evict(self, fingerprint: str) -> bool:
        """Drop one session by fingerprint; ``True`` if it was pooled.

        With a store attached the session's caches are spilled first.
        """
        with self._lock:
            entry = self._entries.pop(fingerprint, None)
            if entry is not None:
                self._evictions += 1
        if entry is not None:
            self._spill_entries([entry])
        return entry is not None

    def clear(self) -> None:
        """Drop every pooled session (counters are kept; sessions spill)."""
        with self._lock:
            dropped = list(self._entries.values())
            self._evictions += len(dropped)
            self._entries.clear()
        self._spill_entries(dropped)

    def persist(self, store: Optional[CacheStore] = None) -> int:
        """Dump every pooled session into ``store`` (default: the attached
        one) without evicting anything; returns the entries written."""
        target = store if store is not None else self._store
        if target is None:
            raise DiscoveryError("no cache store attached and none given")
        with self._lock:
            entries = list(self._entries.values())
        written = 0
        for entry in entries:
            written += entry.profiler.dump_caches(target)
        return written

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def info(self) -> Dict[str, object]:
        """Counters, caps and per-session byte/cost figures (LRU order)."""
        with self._lock:
            sessions = []
            total = 0
            for entry in self._entries.values():
                entry.estimated_bytes = entry.profiler.estimated_bytes()
                total += entry.estimated_bytes
                relation = entry.profiler.relation
                sessions.append(
                    {
                        "fingerprint": entry.fingerprint,
                        "rows": relation.n_rows,
                        "arity": relation.arity,
                        "uses": entry.uses,
                        "estimated_bytes": entry.estimated_bytes,
                        "build_seconds": entry.profiler.build_seconds_total(),
                    }
                )
            return {
                "sessions": len(sessions),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "spilled_entries": self._spills,
                "spill_failures": self._spill_failures,
                "warm_loaded_entries": self._warm_loads,
                "max_sessions": self._max_sessions,
                "max_bytes": self._max_bytes,
                "persistent": self._store is not None,
                "estimated_bytes": total,
                "lru": sessions,
            }


__all__ = ["SessionPool"]
