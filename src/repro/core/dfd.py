"""DFD-style random-walk discovery of minimal k-frequent CFDs.

DFD (Abedjan, Schulze, Naumann — CIKM 2014) replaces the breadth-first
level-wise sweep of TANE/CTANE with a **random walk over the LHS lattice**:
from a seed node the walk descends while the node is a dependency and ascends
while it is not, classifying every visited node as a *dependency* or
*non-dependency* and pruning by monotonicity — supersets of a dependency are
dependencies, subsets of a non-dependency are non-dependencies — so most of
the lattice is *inferred*, never materialised.  Restart seeds are the minimal
hitting sets of the complements of the known non-dependencies, which steers
every new walk into still-undecided territory.

This implementation extends the FD walk with **constant pattern tableaux** so
it emits CFDs, mirroring FastCFD's outer structure exactly (Section 5 of the
reproduced paper): constant CFDs are delegated to CFDMiner over the shared
free/closed mining result, and for every (k-frequent free constant pattern
``X``, RHS attribute ``A``) context the walk finds the minimal *wildcard*
attribute sets ``Y`` such that ``(X ∪ Y_wildcards → A, _)`` holds.  By the
FastFD lemma those minimal LHS sets coincide with the minimal covers of the
minimal difference sets FastCFD enumerates, so the two engines produce the
same canonical cover — the property-test oracle relies on this.

The crucial difference is *how* validity is decided: not from pairwise
difference sets (quadratic in distinct rows, and historically capped at 62
attributes by the int64 bitmask encoding) but directly on the label-array
:class:`~repro.relational.partition.Partition` substrate —
``Π(X ∪ Y, sp)`` grouped by the wildcard attributes must be constant on the
RHS column.  Node partitions are served from (and recorded in) the session's
cross-run pattern-partition cache using the same ``(attrs, codes)`` keys as
CTANE, so a warm serving session benefits both engines.

Determinism: the walk order is driven by one ``random.Random(seed)``
instance, and the discovered minimal LHS sets are emitted in sorted order —
the returned cover is therefore byte-identical for *every* seed; only the
walk statistics (nodes visited, partitions computed, restarts) vary.

Fault behaviour: unlike CTANE there is no per-level frontier to snapshot, so
DFD does **not** checkpoint; a killed run degrades gracefully to a
deterministic re-run that reuses the session's partition caches and the
persisted free/closed caches (see DESIGN.md, "Checkpoint or degrade").
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.core.cfd import CFD
from repro.core.cfdminer import CFDMiner
from repro.core.pattern import WILDCARD
from repro.core.validation import satisfies
from repro.exceptions import DiscoveryError
from repro.fd.covers import minimal_covers
from repro.itemsets.itemset import EncodedItemSet
from repro.obs.names import SPAN_ENGINE_WALK
from repro.itemsets.mining import FreeClosedResult, mine_free_and_closed
from repro.relational.attrset import EMPTY_ATTRSET, AttrSet
from repro.relational.partition import (
    Partition,
    attribute_partition,
    pattern_partition,
)
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only (import would be circular)
    from repro.api.profiler import Profiler


class DFD:
    """Random-walk discovery of a canonical cover of minimal k-frequent CFDs.

    Parameters
    ----------
    relation:
        The sample relation ``r``.
    min_support:
        The support threshold ``k`` (at least 1).
    seed:
        Seed of the walk's ``random.Random`` instance.  Any seed produces the
        same cover (emission is sorted); the seed only shapes the traversal
        and therefore the walk statistics.
    constant_cfds:
        ``"cfdminer"`` (default — delegate constant CFDs to CFDMiner over the
        shared mining result), ``"inline"`` (emit the constant CFD of a
        context whose RHS is constant) or ``"skip"`` (variable CFDs only).
        Matches FastCFD's modes so the two engines stay output-identical.
    max_lhs_size:
        Optional cap on the total LHS size ``|X| + |Y|`` of emitted CFDs
        (CTANE semantics); ``None`` means unbounded.
    free_result:
        Optional pre-computed k-frequent free/closed mining result; the
        :class:`~repro.api.profiler.Profiler` session passes its cached copy
        so repeated runs skip the mining phase.
    session:
        Optional :class:`~repro.api.profiler.Profiler` bound to ``relation``.
        Node partitions are then served from and recorded in the session's
        ``attribute_partition`` / pattern-partition caches (shared with
        CTANE — same cache keys), so warm serving works unchanged.
    progress:
        Optional callback ``progress("dfd:rhs", done, total)`` invoked once
        per RHS attribute.

    Attributes
    ----------
    candidates_checked:
        Lattice-node validity decisions made (inferred or computed).
    nodes_visited:
        Nodes the walk occupied (seeds plus every descend/ascend step).
    partitions_computed:
        Node validity decisions that had to build or fetch a partition
        (the rest were inferred from monotonicity).
    restarts:
        Walks started from a regenerated seed.
    """

    def __init__(
        self,
        relation: Relation,
        min_support: int = 1,
        *,
        seed: int = 0,
        constant_cfds: str = "cfdminer",
        max_lhs_size: Optional[int] = None,
        free_result: Optional[FreeClosedResult] = None,
        session: Optional["Profiler"] = None,
        progress: Optional[Callable[[str, int, int], None]] = None,
    ):
        if min_support < 1:
            raise DiscoveryError("min_support must be at least 1")
        if constant_cfds not in ("cfdminer", "inline", "skip"):
            raise DiscoveryError(
                "constant_cfds must be one of 'cfdminer', 'inline', 'skip'"
            )
        if (
            session is not None
            and session.relation is not relation
            and session.relation != relation
        ):
            raise DiscoveryError("the provided session does not profile this relation")
        self._relation = relation
        self._min_support = min_support
        self._constant_mode = constant_cfds
        self._max_lhs_size = max_lhs_size
        self._matrix = relation.encoded_matrix()
        self._arity = relation.arity
        self._free_result = free_result
        self._session = session
        self._progress = progress
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self.candidates_checked = 0
        self.nodes_visited = 0
        self.partitions_computed = 0
        self.restarts = 0

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
        """Run DFD and return the canonical cover of minimal k-frequent CFDs."""
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
                self._progress("dfd:rhs", rhs + 1, self._arity)
            cfds.extend(self._find_cover(rhs))
        return cfds

    # ------------------------------------------------------------------ #
    def _find_cover(self, rhs: int) -> List[CFD]:
        """All minimal k-frequent CFDs with RHS attribute index ``rhs``."""
        found: List[CFD] = []
        for free in self.free_result.free_sets_sorted():
            if rhs in free.attributes:
                continue  # the constant pattern may not mention the RHS attribute
            found.extend(self._context_cfds(free, rhs))
        return found

    def _context_cfds(self, free, rhs: int) -> List[CFD]:
        """The variable CFDs of one (constant pattern, RHS) walk context."""
        x_items = sorted(free.items)
        budget: Optional[int] = None
        if self._max_lhs_size is not None:
            budget = self._max_lhs_size - len(x_items)
        candidates = AttrSet(
            a
            for a in range(self._arity)
            if a != rhs and a not in free.attributes
        )
        walk = _LatticeWalk(self, x_items, rhs, candidates, budget)
        if walk.validity(EMPTY_ATTRSET):
            # Condition (a): every tuple matching the pattern agrees on the
            # RHS — the context yields at most the constant CFD.
            if self._constant_mode == "inline":
                cfd = self._constant_candidate(free.items, free.tids, rhs)
                if cfd is not None:
                    return [cfd]
            return []
        if not candidates or (budget is not None and budget < 1):
            return []
        if not walk.validity(candidates):
            # Two matching tuples differ on the RHS and agree on every
            # candidate attribute: no wildcard extension can ever be valid.
            return []
        walk.run()
        results: List[CFD] = []
        for cover in sorted(walk.min_deps, key=lambda node: node.as_tuple):
            if self._pattern_is_most_general(free.items, cover, rhs):
                results.append(self._build_variable_cfd(free.items, cover, rhs))
        return results

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
        self, items: EncodedItemSet, cover: AttrSet, rhs: int
    ) -> bool:
        """Condition (b2): no LHS constant can be upgraded to ``_``.

        Upgrading the constant on attribute ``B`` yields a CFD that holds iff
        ``cover ∪ {B}`` (all wildcards) determines the RHS on the tuples
        matching the reduced pattern; if that happens for some ``B`` the
        candidate is not pattern-minimal.  This is the partition form of
        FastCFD's difference-set check (removing ``B`` altogether is subsumed
        by the upgrade, see DESIGN.md) — the two are equivalent by the FastFD
        lemma, keeping DFD and FastCFD output-identical.
        """
        ordered = sorted(items)
        for item in ordered:
            attribute = item[0]
            reduced = [entry for entry in ordered if entry != item]
            if self._pattern_holds(reduced, cover.add(attribute), rhs):
                return False
        return True

    def _pattern_holds(
        self,
        x_items: Sequence[Tuple[int, int]],
        wildcards: AttrSet,
        rhs: int,
    ) -> bool:
        """Does ``(X_constants ∪ wildcards → rhs, _)`` hold on the relation?"""
        x_attrs = tuple(attr for attr, _ in x_items)
        x_codes = tuple(int(code) for _, code in x_items)
        partition = self._node_partition(x_attrs, x_codes, wildcards)
        return partition.column_constant_on_classes(self._matrix[:, rhs])

    # ------------------------------------------------------------------ #
    # partition plumbing (shared with CTANE through the session caches)
    # ------------------------------------------------------------------ #
    def _node_partition(
        self,
        x_attrs: Tuple[int, ...],
        x_codes: Tuple[int, ...],
        node: AttrSet,
    ) -> Partition:
        """``Π(X ∪ node, sp)`` — constants on ``X``, wildcards on ``node``.

        Pure-wildcard nodes go through the session's shared
        ``attribute_partition`` cache; mixed nodes use the session's
        pattern-partition cache under the same ``(attrs, codes)`` keys CTANE
        stores its lattice elements with, so the caches are shared across
        engines and across runs.
        """
        if not x_attrs:
            attrs = node.as_tuple
            if self._session is not None:
                return self._session.attribute_partition(attrs)
            return attribute_partition(self._matrix, list(attrs))
        code_of: Dict[int, int] = dict(zip(x_attrs, x_codes))
        attrs = tuple(sorted(x_attrs + node.as_tuple))
        codes = tuple(code_of.get(attr, WILDCARD) for attr in attrs)
        key = (attrs, codes)
        if self._session is not None:
            cached = self._session.cached_pattern_partition(key)
            if cached is not None:
                return cached
        partition = pattern_partition(self._matrix, attrs, codes)
        if self._session is not None:
            self._session.store_pattern_partition(key, partition)
        return partition

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
        self, items: EncodedItemSet, cover: AttrSet, rhs: int
    ) -> CFD:
        schema = self._relation.schema
        encoding = self._relation.encoding
        lhs_names: List[str] = []
        lhs_pattern: List[object] = []
        for index, code in sorted(items):
            lhs_names.append(schema.name_of(index))
            lhs_pattern.append(encoding.decode_value(index, code))
        for index in cover:
            lhs_names.append(schema.name_of(index))
            lhs_pattern.append(WILDCARD)
        return CFD(tuple(lhs_names), tuple(lhs_pattern), schema.name_of(rhs), WILDCARD)


class _LatticeWalk:
    """The walk state of one (constant pattern, RHS attribute) context.

    Node states follow DFD's classification: a node is a *dependency*
    (``(X ∪ node → A, _)`` holds), a *non-dependency*, or still a
    *candidate*.  Two antichains carry everything the walk has learned:

    * ``_deps`` — known dependencies, kept ⊆-minimal (any superset of a
      member is inferred valid without touching a partition);
    * ``_non_deps`` — known non-dependencies, kept ⊆-maximal (any subset of
      a member is inferred invalid).

    Inference always runs before partition computation.  A walk from a seed
    *minimises* a valid node (descend while some immediate subset is valid;
    when none is, the node is a confirmed minimal dependency) or *maximises*
    an invalid one (ascend while some in-scope immediate superset is
    invalid).  Seeds are the minimal hitting sets of the complements of the
    known non-dependencies, filtered of supersets of confirmed minimal
    dependencies and of nodes beyond the LHS-size budget; every seed round
    therefore confirms a *new* minimal dependency or maximal non-dependency,
    which bounds the walk (see DESIGN.md for the termination argument).
    """

    def __init__(
        self,
        engine: DFD,
        x_items: Sequence[Tuple[int, int]],
        rhs: int,
        candidates: AttrSet,
        budget: Optional[int],
    ):
        self._engine = engine
        self._x_attrs = tuple(attr for attr, _ in x_items)
        self._x_codes = tuple(int(code) for _, code in x_items)
        self._rhs = rhs
        self._candidates = candidates
        self._budget = budget
        self._known: Dict[AttrSet, bool] = {}
        # Antichains kept as AttrSets plus parallel frozenset views: the
        # inference scans below run millions of subset tests per context,
        # and a plain ``frozenset <= frozenset`` is a single C call.
        self._deps: List[AttrSet] = []
        self._dep_elems: List[frozenset] = []
        self._non_deps: List[AttrSet] = []
        self._non_dep_elems: List[frozenset] = []
        self._seed_source: Optional[Iterator[AttrSet]] = None
        #: Confirmed minimal valid wildcard LHS sets (an antichain by
        #: construction — see the seed-filter argument in the class docstring).
        self.min_deps: List[AttrSet] = []

    # -- node classification ------------------------------------------- #
    def validity(self, node: AttrSet) -> bool:
        """Classify ``node``, inferring from the antichains before computing."""
        cached = self._known.get(node)
        if cached is not None:
            return cached
        self._engine.candidates_checked += 1
        elems = node.as_frozenset
        result: Optional[bool] = None
        for dep in self._dep_elems:
            if dep <= elems:
                result = True
                break
        if result is None:
            for non_dep in self._non_dep_elems:
                if elems <= non_dep:
                    result = False
                    break
        if result is None:
            result = self._compute(node)
        self._known[node] = result
        return result

    def _compute(self, node: AttrSet) -> bool:
        self._engine.partitions_computed += 1
        partition = self._engine._node_partition(
            self._x_attrs, self._x_codes, node
        )
        valid = partition.column_constant_on_classes(
            self._engine._matrix[:, self._rhs]
        )
        if valid:
            self._insert_minimal(node)
        else:
            self._insert_maximal(node)
        return valid

    def _insert_minimal(self, node: AttrSet) -> None:
        elems = node.as_frozenset
        if any(kept <= elems for kept in self._dep_elems):
            return  # subsumed: infers nothing new
        keep = [
            i for i, kept in enumerate(self._dep_elems) if not elems <= kept
        ]
        self._deps = [self._deps[i] for i in keep] + [node]
        self._dep_elems = [self._dep_elems[i] for i in keep] + [elems]

    def _insert_maximal(self, node: AttrSet) -> None:
        elems = node.as_frozenset
        if any(elems <= kept for kept in self._non_dep_elems):
            return
        keep = [
            i
            for i, kept in enumerate(self._non_dep_elems)
            if not kept <= elems
        ]
        self._non_deps = [self._non_deps[i] for i in keep] + [node]
        self._non_dep_elems = [self._non_dep_elems[i] for i in keep] + [elems]

    # -- the walk ------------------------------------------------------- #
    def run(self) -> None:
        """Walk until the seed space is exhausted; fills :attr:`min_deps`."""
        while True:
            seed = self._next_seed()
            if seed is None:
                return
            self._engine.restarts += 1
            # One span per seeded walk: restart count and per-walk node
            # visits are the DFD-side waterfall of a trace.
            with obs.get_tracer().start_span(
                SPAN_ENGINE_WALK, restart=self._engine.restarts, rhs=self._rhs
            ) as span:
                visited_before = self._engine.nodes_visited
                self._walk_from(seed)
                span.set_attr(
                    "nodes_visited", self._engine.nodes_visited - visited_before
                )

    def _next_seed(self) -> Optional[AttrSet]:
        """The next still-interesting minimal hitting set, or ``None``.

        A seed must intersect ``candidates − N`` for every known
        non-dependency ``N`` (otherwise it is ⊆ some ``N`` and already
        decided), must not extend a confirmed minimal dependency, and must
        fit the LHS-size budget.

        Seeds are drawn lazily from one live hitting-set enumeration and
        re-validated against the *current* antichains when drawn —
        re-enumerating from scratch after every confirmed node would
        dominate the whole walk, and materialising an enumeration up front
        is just as bad (the cover space can be huge while only its prefix
        is ever needed).  Only when the live enumeration runs dry is a
        fresh one started against the updated non-dependency family; a
        fresh enumeration that yields no passing seed is exactly the
        original exhaustion condition, so termination and the confirmed
        cover are unchanged — the laziness only reorders visits.
        """
        seed = self._drain_source()
        if seed is not None:
            return seed
        complements = [self._candidates - non_dep for non_dep in self._non_deps]
        self._seed_source = minimal_covers(complements, list(self._candidates))
        return self._drain_source()

    def _drain_source(self) -> Optional[AttrSet]:
        source = self._seed_source
        if source is None:
            return None
        for cover in source:
            if self._budget is not None and len(cover) > self._budget:
                continue
            cover_elems = cover.as_frozenset
            if any(dep.as_frozenset <= cover_elems for dep in self.min_deps):
                continue
            # Stale check: a seed enumerated before the last walk may have
            # stopped hitting every complement (⟺ it became ⊆ some newly
            # recorded non-dependency) — walking it would confirm nothing.
            if any(cover_elems <= non_dep for non_dep in self._non_dep_elems):
                continue
            return cover
        self._seed_source = None
        return None

    def _walk_from(self, seed: AttrSet) -> None:
        if self.validity(seed):
            self._minimise(seed)
        else:
            self._maximise(seed)

    def _minimise(self, node: AttrSet) -> None:
        """Descend from a valid node to a confirmed minimal dependency."""
        while True:
            self._engine.nodes_visited += 1
            descended = False
            for attr in self._shuffled(node):
                subset = node.discard(attr)
                if self.validity(subset):
                    node = subset
                    descended = True
                    break
            if not descended:
                # Every immediate subset is a non-dependency: minimal.
                self.min_deps.append(node)
                return

    def _maximise(self, node: AttrSet) -> None:
        """Ascend from an invalid node to a maximal in-scope non-dependency."""
        while True:
            self._engine.nodes_visited += 1
            ascended = False
            for attr in self._shuffled(self._candidates - node):
                superset = node.add(attr)
                if self._budget is not None and len(superset) > self._budget:
                    continue
                if not self.validity(superset):
                    node = superset
                    ascended = True
                    break
            if not ascended:
                # Every in-scope immediate superset is a dependency (or out
                # of budget): record the ceiling so seeds steer elsewhere.
                self._insert_maximal(node)
                return

    def _shuffled(self, attrs: AttrSet) -> List[int]:
        order = list(attrs)
        self._engine._rng.shuffle(order)
        return order


def discover_cfds_dfd(
    relation: Relation, min_support: int = 1, **kwargs: object
) -> List[CFD]:
    """Convenience wrapper: run :class:`DFD` on ``relation``."""
    return DFD(relation, min_support, **kwargs).discover()


__all__ = ["DFD", "discover_cfds_dfd"]
