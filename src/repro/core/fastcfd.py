"""FastCFD and NaiveFast: depth-first discovery of general CFDs (Section 5).

FastCFD decomposes the discovery problem per RHS attribute ``A`` and, for each
k-frequent **free** item set ``(X, tp)`` (the pattern-pruning strategy of
Lemma 5), computes the minimal difference sets ``Dᵐ_A(r_tp)`` and enumerates
their minimal covers depth-first (procedure FindMin).  Each minimal cover
``Y`` yields the candidate variable CFD ``([X, Y] → A, (tp, _, … ‖ _))``,
which is emitted once the left-reducedness conditions (b1)/(b2) of the paper
hold; when ``Dᵐ_A(r_tp)`` is empty the constant CFD ``(X → A, (tp ‖ a))`` is
produced instead (condition (a)), unless constant discovery is delegated to
CFDMiner (the paper's recommended configuration).

Two interchangeable *difference-set providers* implement the paper's two
variants:

* :class:`PartitionDifferenceSets` — pairwise/partition based computation;
  plugging it in gives the paper's **NaiveFast**.
* :class:`ClosedSetDifferenceSets` — difference sets are read off the
  2-frequent closed item sets that extend ``(X, tp)`` (Section 5.5); plugging
  it in gives the paper's **FastCFD** proper.
"""

from __future__ import annotations

import threading
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.cfd import CFD
from repro.core.cfdminer import CFDMiner
from repro.core.pattern import WILDCARD
from repro.core.validation import satisfies
from repro.exceptions import DiscoveryError
from repro.fd.covers import covers, minimal_covers
from repro.fd.difference_sets import minimal_difference_sets_wrt, minimal_sets
from repro.itemsets.itemset import EncodedItem, EncodedItemSet
from repro.itemsets.mining import (
    FreeClosedResult,
    itemset_support,
    mine_free_and_closed,
)
from repro.relational.attrset import AttrSet
from repro.relational.relation import Relation

AttributeSet = AttrSet

#: Rough bytes per small hashable (an int in a frozenset, an encoded item) in
#: the :meth:`DifferenceSetProvider.estimated_bytes` estimates.  Deliberately
#: coarse — the session pool only needs relative sizes for eviction.
_EST_ITEM_BYTES = 64


def _family_bytes(family: Iterable[FrozenSet]) -> int:
    """Approximate heap bytes of a collection of frozensets."""
    return 64 + sum(64 + _EST_ITEM_BYTES * len(member) for member in family)


#: Heap bytes a per-query cache entry holds beyond its items and its
#: family's members: the key tuple and frozenset, the family's set object
#: and the dict slot.  Calibrated against tracemalloc's live bytes (see
#: tests/serve/test_byte_accounting.py).
_QUERY_ENTRY_BYTES = 400


def _entry_bytes(items: EncodedItemSet, family: Set[AttributeSet]) -> int:
    """The byte charge of one per-query cache entry."""
    return _QUERY_ENTRY_BYTES + _EST_ITEM_BYTES * len(items) + _family_bytes(family)


# ---------------------------------------------------------------------- #
# difference-set providers
# ---------------------------------------------------------------------- #
class DifferenceSetProvider:
    """Minimal difference sets ``Dᵐ_A(r_tp)`` for a constant pattern, cached
    per query.

    Subclasses implement :meth:`_compute`.  ``_cache_lock`` guards only the
    per-query cache and its byte total, never the computation: concurrent
    engines sharing one provider compute outside it, and two threads may
    compute the same key (benign — the result is deterministic).
    """

    def __init__(self, index_bytes: int = 0):
        self._cache: Dict[Tuple[int, EncodedItemSet], Set[AttributeSet]] = {}
        #: Running byte total: the provider's index, sized once by the
        #: subclass, plus each cache entry, charged on its first insert.
        self._bytes = index_bytes
        self._cache_lock = threading.Lock()

    def minimal_difference_sets(
        self, rhs: int, items: EncodedItemSet
    ) -> Set[AttributeSet]:
        key = (rhs, frozenset(items))
        with self._cache_lock:
            cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self._compute(rhs, key[1])
        self._insert(key, result)
        return result

    def _compute(self, rhs: int, items: EncodedItemSet) -> Set[AttributeSet]:
        raise NotImplementedError

    def _insert(
        self, key: Tuple[int, EncodedItemSet], family: Set[AttributeSet]
    ) -> None:
        """Cache one query result; a key already present is not re-charged."""
        charge = _entry_bytes(key[1], family)
        with self._cache_lock:
            if key not in self._cache:
                self._cache[key] = family
                self._bytes += charge

    def estimated_bytes(self) -> int:
        """Approximate heap bytes held by the provider's index and query
        cache: their running total, charged as entries land (O(1))."""
        with self._cache_lock:
            return self._bytes

    def export_cache(self) -> List[Tuple[int, EncodedItemSet, Set[AttributeSet]]]:
        """Snapshot of the per-query cache as ``(rhs, items, family)`` triples.

        The serving layer's persistent :class:`~repro.serve.store.CacheStore`
        dumps this so a restarted worker's provider answers previously seen
        queries without recomputing them.
        """
        with self._cache_lock:
            entries = list(self._cache.items())
        return [(rhs, items, set(family)) for (rhs, items), family in entries]

    def import_cache(
        self, entries: Iterable[Tuple[int, EncodedItemSet, Set[AttributeSet]]]
    ) -> None:
        """Pre-seed the per-query cache (inverse of :meth:`export_cache`)."""
        for rhs, items, family in entries:
            self._insert((int(rhs), frozenset(items)), set(family))


class PartitionDifferenceSets(DifferenceSetProvider):
    """Pairwise (partition style) difference sets — the **NaiveFast** provider.

    For every queried pattern the provider materialises the matching tuples
    and compares them pairwise (with numpy bitmask batching).  The cost grows
    quadratically with the number of distinct matching tuples, which is
    exactly the DBSIZE sensitivity the paper reports for NaiveFast.  The
    encoded matrix belongs to (and is accounted on) the relation's encoding,
    so the provider's bytes are its query cache alone.
    """

    def __init__(self, relation: Relation):
        super().__init__()
        self._relation = relation
        self._matrix = relation.encoded_matrix()

    def _compute(self, rhs: int, items: EncodedItemSet) -> Set[AttributeSet]:
        tids = itemset_support(self._relation, items)
        return minimal_difference_sets_wrt(self._matrix, rhs, rows=tids)


class ClosedSetDifferenceSets(DifferenceSetProvider):
    """Difference sets from 2-frequent closed item sets — the **FastCFD** provider.

    The agree set of any pair of tuples is a closed item set with support at
    least two; conversely every 2-frequent closed item set that extends the
    queried pattern and carries no item on the RHS attribute is the agree set
    of at least one pair of matching tuples that disagree on the RHS.  The
    minimal difference sets are therefore the ⊆-minimal complements of those
    closed item sets (Section 5.5 of the paper).
    """

    def __init__(
        self,
        relation: Relation,
        closed_result: Optional[FreeClosedResult] = None,
    ):
        self._relation = relation
        self._arity = relation.arity
        if closed_result is None:
            closed_result = mine_free_and_closed(relation, min_support=2)
        # Precompute, per closed set: its items, its attribute set, its
        # complement (the candidate difference set), and a posting list from
        # each item to the closed sets containing it, so that queries only
        # touch the closed sets that can possibly match.
        self._closed_items: List[EncodedItemSet] = list(
            closed_result.closed_to_free.keys()
        )
        all_attrs = AttrSet.full(self._arity)
        self._closed_attrs: List[AttrSet] = []
        self._closed_complements: List[AttrSet] = []
        self._postings: Dict[EncodedItem, Set[int]] = {}
        for index, items in enumerate(self._closed_items):
            attrs = AttrSet(attr for attr, _ in items)
            self._closed_attrs.append(attrs)
            self._closed_complements.append(all_attrs - attrs)
            for item in items:
                self._postings.setdefault(item, set()).add(index)
        self._all_indices = set(range(len(self._closed_items)))
        super().__init__(
            _family_bytes(self._closed_items)
            + _family_bytes(self._closed_attrs)
            + _family_bytes(self._closed_complements)
            + _family_bytes(self._postings.values())
            + _EST_ITEM_BYTES * len(self._all_indices)
        )

    def _candidate_indices(self, query: EncodedItemSet) -> Set[int]:
        """Indices of the closed sets containing every item of ``query``."""
        if not query:
            return self._all_indices
        posting_lists = []
        for item in query:
            posting = self._postings.get(item)
            if not posting:
                return set()
            posting_lists.append(posting)
        posting_lists.sort(key=len)
        candidates = set(posting_lists[0])
        for posting in posting_lists[1:]:
            candidates &= posting
            if not candidates:
                break
        return candidates

    def _compute(self, rhs: int, items: EncodedItemSet) -> Set[AttributeSet]:
        family: Set[AttributeSet] = set()
        for index in self._candidate_indices(items):
            closed_attrs = self._closed_attrs[index]
            if rhs in closed_attrs:
                continue  # the pair agrees on the RHS attribute
            family.add(self._closed_complements[index] - {rhs})
        return minimal_sets(family)


# ---------------------------------------------------------------------- #
# the algorithm
# ---------------------------------------------------------------------- #
class FastCFD:
    """Depth-first discovery of a canonical cover of minimal k-frequent CFDs.

    Parameters
    ----------
    relation:
        The sample relation ``r``.
    min_support:
        The support threshold ``k`` (at least 1).
    difference_sets:
        ``"closed"`` (default — the paper's FastCFD) or ``"partition"`` (the
        paper's NaiveFast); alternatively a ready-made
        :class:`DifferenceSetProvider` instance.
    constant_cfds:
        ``"cfdminer"`` (default — delegate constant CFDs to CFDMiner, the
        paper's optimised configuration), ``"inline"`` (base case (a) of
        FindMin) or ``"skip"`` (variable CFDs only).
    dynamic_reordering:
        Greedy dynamic attribute reordering during cover search (Section 5.6).
    max_lhs_size:
        Optional cap on the constant-pattern size considered (free item sets
        larger than this are not enumerated); ``None`` means unbounded.
    free_result:
        Optional pre-computed k-frequent free/closed mining result for this
        relation and threshold; the :class:`~repro.api.profiler.Profiler`
        session passes its cached copy here so repeated runs skip the mining
        phase.
    progress:
        Optional callback ``progress(stage, done, total)`` invoked once per
        RHS attribute while the per-attribute covers are enumerated.
    """

    def __init__(
        self,
        relation: Relation,
        min_support: int = 1,
        *,
        difference_sets: object = "closed",
        constant_cfds: str = "cfdminer",
        dynamic_reordering: bool = True,
        max_lhs_size: Optional[int] = None,
        free_result: Optional[FreeClosedResult] = None,
        progress: Optional[Callable[[str, int, int], None]] = None,
    ):
        if min_support < 1:
            raise DiscoveryError("min_support must be at least 1")
        if constant_cfds not in ("cfdminer", "inline", "skip"):
            raise DiscoveryError(
                "constant_cfds must be one of 'cfdminer', 'inline', 'skip'"
            )
        self._relation = relation
        self._min_support = min_support
        self._constant_mode = constant_cfds
        self._dynamic_reordering = dynamic_reordering
        self._max_lhs_size = max_lhs_size
        self._matrix = relation.encoded_matrix()
        self._arity = relation.arity
        self._free_result: Optional[FreeClosedResult] = free_result
        self._progress = progress
        if isinstance(difference_sets, DifferenceSetProvider):
            self._provider: DifferenceSetProvider = difference_sets
        elif difference_sets == "closed":
            self._provider = ClosedSetDifferenceSets(relation)
        elif difference_sets == "partition":
            self._provider = PartitionDifferenceSets(relation)
        else:
            raise DiscoveryError(
                "difference_sets must be 'closed', 'partition' or a provider instance"
            )

    # ------------------------------------------------------------------ #
    @property
    def free_result(self) -> FreeClosedResult:
        """The k-frequent free item sets (mined lazily, shared with CFDMiner)."""
        if self._free_result is None:
            self._free_result = mine_free_and_closed(
                self._relation,
                min_support=self._min_support,
                max_size=self._max_lhs_size,
            )
        return self._free_result

    # ------------------------------------------------------------------ #
    def discover(self) -> List[CFD]:
        """Run FastCFD and return the canonical cover of minimal k-frequent CFDs."""
        cfds: List[CFD] = []
        if self._constant_mode == "cfdminer":
            miner = CFDMiner(
                self._relation,
                self._min_support,
                max_lhs_size=self._max_lhs_size,
                mining_result=self.free_result,  # share the mining work
            )
            cfds.extend(miner.discover())
        for rhs in range(self._arity):
            if self._progress is not None:
                self._progress("fastcfd:rhs", rhs + 1, self._arity)
            cfds.extend(self._find_cover(rhs))
        return cfds

    # ------------------------------------------------------------------ #
    # FindCover / FindMin (Section 5.2)
    # ------------------------------------------------------------------ #
    def _find_cover(self, rhs: int) -> List[CFD]:
        """All minimal k-frequent CFDs with RHS attribute index ``rhs``."""
        found: List[CFD] = []
        for free in self.free_result.free_sets_sorted():
            if rhs in free.attributes:
                continue  # the constant pattern may not mention the RHS attribute
            diff_sets = self._provider.minimal_difference_sets(rhs, free.items)
            if not diff_sets:
                # Condition (a): every matching tuple agrees on the RHS.
                if self._constant_mode == "inline":
                    cfd = self._constant_candidate(free.items, free.tids, rhs)
                    if cfd is not None:
                        found.append(cfd)
                continue
            if frozenset() in diff_sets:
                # Two matching tuples differ on the RHS and agree elsewhere:
                # no LHS extension can ever yield a valid CFD.
                continue
            candidates = [
                a for a in range(self._arity) if a != rhs and a not in free.attributes
            ]
            for cover in minimal_covers(
                diff_sets, candidates, dynamic_reordering=self._dynamic_reordering
            ):
                if self._pattern_is_most_general(free.items, cover, rhs):
                    found.append(self._build_variable_cfd(free.items, cover, rhs))
        return found

    def _constant_candidate(
        self, items: EncodedItemSet, tids: np.ndarray, rhs: int
    ) -> Optional[CFD]:
        """Base case (a): the constant CFD of a pattern whose RHS is constant."""
        if tids.size < self._min_support:
            return None
        rhs_code = int(self._matrix[int(tids[0]), rhs])
        cfd = self._build_constant_cfd(items, rhs, rhs_code)
        # Left-reducedness: no single-attribute reduction of the LHS may hold.
        for attribute in cfd.lhs:
            if satisfies(self._relation, cfd.drop_lhs_attribute(attribute)):
                return None
        return cfd

    def _pattern_is_most_general(
        self, items: EncodedItemSet, cover: AttributeSet, rhs: int
    ) -> bool:
        """Condition (b2): no LHS constant can be upgraded to ``_``.

        Upgrading the constant on attribute ``B`` of the pattern yields a CFD
        that holds iff ``cover ∪ {B}`` covers ``Dᵐ_A`` of the tuples matching
        the reduced pattern; if that happens for some ``B`` the candidate is
        not pattern-minimal.  (Removing ``B`` altogether is subsumed by this
        check, see DESIGN.md.)
        """
        for item in items:
            attribute = item[0]
            reduced = frozenset(items) - {item}
            reduced_diff = self._provider.minimal_difference_sets(rhs, reduced)
            if frozenset() in reduced_diff:
                continue
            if covers(set(cover) | {attribute}, reduced_diff):
                return False
        return True

    # ------------------------------------------------------------------ #
    # decoding helpers
    # ------------------------------------------------------------------ #
    def _build_constant_cfd(
        self, items: EncodedItemSet, rhs: int, rhs_code: int
    ) -> CFD:
        schema = self._relation.schema
        encoding = self._relation.encoding
        lhs_sorted = sorted(items)
        lhs_names = tuple(schema.name_of(index) for index, _ in lhs_sorted)
        lhs_values = tuple(
            encoding.decode_value(index, code) for index, code in lhs_sorted
        )
        return CFD(
            lhs_names,
            lhs_values,
            schema.name_of(rhs),
            encoding.decode_value(rhs, rhs_code),
        )

    def _build_variable_cfd(
        self, items: EncodedItemSet, cover: AttributeSet, rhs: int
    ) -> CFD:
        schema = self._relation.schema
        encoding = self._relation.encoding
        lhs_names: List[str] = []
        lhs_pattern: List[object] = []
        for index, code in sorted(items):
            lhs_names.append(schema.name_of(index))
            lhs_pattern.append(encoding.decode_value(index, code))
        for index in sorted(cover):
            lhs_names.append(schema.name_of(index))
            lhs_pattern.append(WILDCARD)
        return CFD(tuple(lhs_names), tuple(lhs_pattern), schema.name_of(rhs), WILDCARD)


class NaiveFast(FastCFD):
    """The paper's NaiveFast: FastCFD with partition-based difference sets.

    Identical output to :class:`FastCFD`; only the difference-set provider —
    and therefore the runtime behaviour as DBSIZE grows — differs.
    """

    def __init__(
        self,
        relation: Relation,
        min_support: int = 1,
        *,
        difference_sets: object = None,
        constant_cfds: str = "inline",
        dynamic_reordering: bool = True,
        max_lhs_size: Optional[int] = None,
        free_result: Optional[FreeClosedResult] = None,
        progress: Optional[Callable[[str, int, int], None]] = None,
    ):
        if difference_sets is None:
            difference_sets = PartitionDifferenceSets(relation)
        elif not isinstance(difference_sets, PartitionDifferenceSets):
            raise DiscoveryError(
                "NaiveFast requires a PartitionDifferenceSets provider"
            )
        super().__init__(
            relation,
            min_support,
            difference_sets=difference_sets,
            constant_cfds=constant_cfds,
            dynamic_reordering=dynamic_reordering,
            max_lhs_size=max_lhs_size,
            free_result=free_result,
            progress=progress,
        )


def discover_cfds_fastcfd(
    relation: Relation, min_support: int = 1, **kwargs: object
) -> List[CFD]:
    """Convenience wrapper: run :class:`FastCFD` on ``relation``."""
    return FastCFD(relation, min_support, **kwargs).discover()


__all__ = [
    "DifferenceSetProvider",
    "PartitionDifferenceSets",
    "ClosedSetDifferenceSets",
    "FastCFD",
    "NaiveFast",
    "discover_cfds_fastcfd",
]
