"""CTANE: levelwise discovery of general minimal CFDs (Section 4 of the paper).

CTANE traverses an attribute-set/pattern lattice whose elements are pairs
``(X, sp)`` of an attribute set and a pattern over it (constants and the
unnamed variable ``_``).  Level ``ℓ`` holds the elements with ``|X| = ℓ``.
For every element the algorithm maintains a candidate-RHS set ``C⁺(X, sp)``;
a CFD ``(X \\ {A} → A, (sp[X \\ {A}] ‖ sp[A]))`` is emitted when it holds on
the relation and ``(A, sp[A])`` survived in ``C⁺(X, sp)`` — by Lemma 2 of the
paper this guarantees minimality.  The four steps per level are exactly the
paper's:

1. ``C⁺(X, sp) = ⋂_{B ∈ X} C⁺(X \\ {B}, sp[X \\ {B}])`` (plus the structural
   constraint that ``A ∈ X`` forces ``cA = sp[A]``);
2. validity checks and emission, followed by the ``C⁺`` updates of step 2(c);
3. removal of elements with an empty ``C⁺``;
4. generation of the next level by prefix join, keeping only candidates whose
   constant part is k-frequent and whose immediate sub-elements all survived.

Validity is checked directly on the *pattern partition* (every equivalence
class of the LHS-pattern partition must be constant on the RHS and match the
RHS pattern); the TANE class-count comparison is not sound for constant RHS
patterns, see DESIGN.md.

Pattern partitions are maintained *incrementally*, as Section 4.4 of the
paper prescribes: every lattice element caches its ``Π(X, sp)`` as a label
array (:class:`~repro.relational.partition.Partition`), and a level-ℓ element
derives its partition with a single linear-time :meth:`Partition.product`
from the partition of its generating level-(ℓ−1) element and the cached
single-attribute partition of the joined-in ``(attribute, pattern-value)``
item.  The same partition answers both the k-frequency check of step 4
(``covered_rows``) and the validity check of step 2, which reduces to O(1)
count comparisons between the element's partition and its LHS parent's
(``n_classes`` for a wildcard RHS, ``covered_rows`` for a constant RHS — see
:meth:`CTane._cfd_valid_partition` and DESIGN.md for the soundness argument),
so no step re-scans the encoded matrix per candidate.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro import obs
from repro.core.cfd import CFD
from repro.core.minimality import is_minimal
from repro.core.pattern import WILDCARD, is_wildcard, pattern_leq
from repro.exceptions import DiscoveryError
from repro.obs.names import SPAN_ENGINE_LEVEL
from repro.relational.partition import Partition, attribute_partition
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only (import would be circular)
    from repro.api.profiler import Profiler

PatternCode = object  # an int value code or WILDCARD
Element = Tuple[Tuple[int, ...], Tuple[PatternCode, ...]]
CandidateItem = Tuple[int, PatternCode]


class CTane:
    """Levelwise discovery of a canonical cover of minimal k-frequent CFDs.

    Parameters
    ----------
    relation:
        The sample relation ``r``.
    min_support:
        The support threshold ``k`` (at least 1).
    max_lhs_size:
        Optional cap on the LHS size of emitted CFDs (``None``: unbounded,
        i.e. the lattice is explored up to the full arity).
    cplus_pruning:
        Keep the ``C⁺``-based pruning on (the algorithm of the paper).  Turning
        it off keeps every lattice element alive and emits via definition-level
        minimality checks instead; it exists for the pruning ablation
        benchmark.
    verify_minimality:
        Re-check every emitted CFD against the minimality definition and drop
        (and count) any failure.  Off by default; the test-suite validates the
        raw output against the brute-force oracle.
    session:
        Optional :class:`~repro.api.profiler.Profiler` bound to ``relation``.
        When given, single-attribute wildcard partitions are served from (and
        recorded in) the session's ``attribute_partition`` cache, so TANE,
        CTANE and the cleaning layer share one partition substrate across a
        discovery session.
    progress:
        Optional callback ``progress(stage, level, arity)`` invoked once per
        lattice level (for long-run feedback on large relations).
    checkpoint:
        Optional checkpoint handle with ``load() -> Optional[state]``,
        ``save(state)`` and ``clear()``.  When given (or derivable from the
        session via :meth:`~repro.api.profiler.Profiler.ctane_checkpoint`),
        the traversal snapshots its loop frontier at the top of every level
        and a re-run after a crash/kill/deadline resumes from the last
        completed level instead of from scratch — with byte-identical output,
        since the snapshot captures everything the remaining levels read.
        :attr:`resumed_level` / :attr:`resume_levels_skipped` record whether
        (and how far) a run warm-resumed.
    """

    def __init__(
        self,
        relation: Relation,
        min_support: int = 1,
        *,
        max_lhs_size: Optional[int] = None,
        cplus_pruning: bool = True,
        verify_minimality: bool = False,
        session: Optional["Profiler"] = None,
        progress: Optional[Callable[[str, int, int], None]] = None,
        checkpoint: Optional[object] = None,
    ):
        if min_support < 1:
            raise DiscoveryError("min_support must be at least 1")
        if (
            session is not None
            and session.relation is not relation
            and session.relation != relation
        ):
            raise DiscoveryError("the provided session does not profile this relation")
        self._relation = relation
        self._min_support = min_support
        self._max_lhs_size = max_lhs_size
        self._cplus_pruning = cplus_pruning
        self._verify_minimality = verify_minimality
        self._session = session
        self._progress = progress
        self._matrix = relation.encoded_matrix()
        self._arity = relation.arity
        self._n_rows = relation.n_rows
        self._all_rows_partition: Optional[Partition] = None
        # Per-attribute code bound (codes are 0..span-1), for the mixed-radix
        # pairing of refine_by_column.
        self._column_spans: List[int] = [
            int(self._matrix[:, a].max()) + 1 if self._n_rows else 1
            for a in range(self._arity)
        ]
        #: statistics filled by :meth:`discover`
        self.candidates_checked = 0
        self.elements_generated = 0
        self.non_minimal_dropped = 0
        #: resume bookkeeping: the level a checkpointed run restarted at, and
        #: how many completed levels it skipped (0 = cold run).
        self.resumed_level: Optional[int] = None
        self.resume_levels_skipped = 0
        self._checkpoint = checkpoint
        if self._checkpoint is None and session is not None:
            factory = getattr(session, "ctane_checkpoint", None)
            if factory is not None:
                self._checkpoint = factory(self._checkpoint_params())

    def _checkpoint_params(self) -> Dict[str, object]:
        """The request shape a checkpoint is keyed by (resume safety: a
        checkpoint only ever feeds a traversal with identical parameters)."""
        return {
            "min_support": int(self._min_support),
            "max_lhs_size": self._max_lhs_size,
            "cplus_pruning": bool(self._cplus_pruning),
            "verify_minimality": bool(self._verify_minimality),
        }

    # ------------------------------------------------------------------ #
    # the partition substrate
    # ------------------------------------------------------------------ #
    def _empty_pattern_partition(self) -> Partition:
        """``Π(∅, ())``: every row in one class."""
        if self._all_rows_partition is None:
            if self._session is not None:
                self._all_rows_partition = self._session.attribute_partition(())
            else:
                self._all_rows_partition = attribute_partition(self._matrix, [])
        return self._all_rows_partition

    def _single_partition(self, attribute: int, code: PatternCode) -> Partition:
        """``Π({A}, (code,))``, the partition of one level-1 element.

        Wildcard partitions come from (and warm) the session's shared
        ``attribute_partition`` cache when one is given.  Constant partitions
        store only their covered rows (support-sized), so level 1 holds at
        most one relation's worth of row indices per attribute.  Each level-1
        element is distinct, so no local memoisation is needed.
        """
        if is_wildcard(code):
            if self._session is not None:
                return self._session.attribute_partition((attribute,))
            return attribute_partition(self._matrix, [attribute])
        if self._session is not None:
            key = ((attribute,), (int(code),))
            cached = self._session.cached_pattern_partition(key)
            if cached is not None:
                return cached
            partition = Partition.from_mask(
                self._matrix[:, attribute] == int(code), self._n_rows
            )
            self._session.store_pattern_partition(key, partition)
            return partition
        return Partition.from_mask(
            self._matrix[:, attribute] == int(code), self._n_rows
        )

    # ------------------------------------------------------------------ #
    # validity and support checks
    # ------------------------------------------------------------------ #
    @staticmethod
    def _cfd_valid_partition(
        lhs_partition: Partition,
        element_partition: Partition,
        rhs_code: PatternCode,
    ) -> bool:
        """Validity as O(1) count comparisons on cached pattern partitions.

        ``lhs_partition`` is ``Π(X \\ {A}, sp')`` and ``element_partition``
        the element's own ``Π(X, sp)``.

        * Wildcard RHS: both partitions cover the same rows (they share the
          constants), and the element refines the LHS by additionally
          grouping on ``A`` — every LHS class is constant on ``A`` iff no
          class splits, i.e. iff the class counts agree (TANE's test, lifted
          to pattern partitions).
        * Constant RHS ``A = c``: the element's partition covers exactly the
          LHS-matching rows that also satisfy ``A = c``, so the CFD holds iff
          the covered-row counts agree.  (The plain class-count comparison is
          *not* sound here, see DESIGN.md — the covered counts are.)
        """
        if not is_wildcard(rhs_code):
            return lhs_partition.covered_rows == element_partition.covered_rows
        return lhs_partition.n_classes == element_partition.n_classes

    # ------------------------------------------------------------------ #
    def _decode_cfd(
        self,
        lhs_attrs: Sequence[int],
        lhs_pattern: Sequence[PatternCode],
        rhs: int,
        rhs_code: PatternCode,
    ) -> CFD:
        schema = self._relation.schema
        encoding = self._relation.encoding
        names = tuple(schema.name_of(a) for a in lhs_attrs)
        values = tuple(
            WILDCARD if is_wildcard(code) else encoding.decode_value(attribute, int(code))
            for attribute, code in zip(lhs_attrs, lhs_pattern)
        )
        rhs_value = (
            WILDCARD if is_wildcard(rhs_code) else encoding.decode_value(rhs, int(rhs_code))
        )
        return CFD(names, values, schema.name_of(rhs), rhs_value)

    # ------------------------------------------------------------------ #
    # the levelwise traversal
    # ------------------------------------------------------------------ #
    def _initial_level(self) -> List[Element]:
        """Level 1: one element per attribute/wildcard and per frequent constant."""
        level: List[Element] = []
        for attribute in range(self._arity):
            level.append(((attribute,), (WILDCARD,)))
            column = self._matrix[:, attribute]
            codes, counts = np.unique(column, return_counts=True)
            for code, count in zip(codes.tolist(), counts.tolist()):
                if count >= self._min_support:
                    level.append(((attribute,), (int(code),)))
        return level

    def _intersect_parent_candidates(
        self,
        element: Element,
        parent_cplus: Dict[Element, Set[CandidateItem]],
    ) -> Set[CandidateItem]:
        """Step 1: ``C⁺`` of an element from its immediate sub-elements."""
        attrs, pattern = element
        candidate: Optional[Set[CandidateItem]] = None
        for position in range(len(attrs)):
            parent = (
                attrs[:position] + attrs[position + 1:],
                pattern[:position] + pattern[position + 1:],
            )
            parent_set = parent_cplus.get(parent)
            if parent_set is None:
                return set()
            candidate = set(parent_set) if candidate is None else candidate & parent_set
            if not candidate:
                return set()
        assert candidate is not None
        # Structural constraint (condition 1 of the C+ definition): for an
        # attribute inside X the only admissible pattern value is sp[A].
        filtered: Set[CandidateItem] = set()
        for attribute, code in candidate:
            if attribute in attrs:
                if code == pattern[attrs.index(attribute)]:
                    filtered.add((attribute, code))
            else:
                filtered.add((attribute, code))
        return filtered

    @staticmethod
    def _generality_rank(element: Element) -> Tuple:
        """Sort key placing more general patterns (more wildcards) first."""
        attrs, pattern = element
        constants = sum(0 if is_wildcard(code) else 1 for code in pattern)
        rendering = tuple(
            "_" if is_wildcard(code) else f"c{code}" for code in pattern
        )
        return (attrs, constants, rendering)

    def discover(self) -> List[CFD]:
        """Run CTANE and return the canonical cover of minimal k-frequent CFDs."""
        results: List[CFD] = []
        if self._n_rows < self._min_support:
            # No pattern (not even the all-wildcard one) can reach the support
            # threshold, so the canonical cover is empty.
            return results
        state = self._checkpoint.load() if self._checkpoint is not None else None
        if state is not None:
            # Warm resume: restore the loop frontier the checkpoint captured
            # at the top of level ``size`` — everything before it is done.
            size = int(state["size"])
            level: List[Element] = list(state["level"])
            parent_cplus: Dict[Element, Set[CandidateItem]] = state["parent_cplus"]
            parent_partitions: Dict[Element, Partition] = state["parent_partitions"]
            level_partitions: Dict[Element, Partition] = state["level_partitions"]
            results = list(state["results"])
            counters = state.get("counters", {})
            self.candidates_checked += int(counters.get("candidates_checked", 0))
            self.elements_generated += int(counters.get("elements_generated", 0))
            self.non_minimal_dropped += int(counters.get("non_minimal_dropped", 0))
            self.resumed_level = size
            self.resume_levels_skipped = size - 1
        else:
            level = self._initial_level()
            self.elements_generated += len(level)

            empty_element: Element = ((), ())
            base_candidates: Set[CandidateItem] = set()
            for attrs, pattern in level:
                base_candidates.add((attrs[0], pattern[0]))
            parent_cplus = {empty_element: base_candidates}

            parent_partitions = {empty_element: self._empty_pattern_partition()}
            level_partitions = {
                element: self._single_partition(element[0][0], element[1][0])
                for element in level
            }
            size = 1

        while level:
            # One span per lattice level: the per-level cost profile is
            # the trace's engine-side waterfall (and a per-phase training
            # row for the cost model).
            with obs.get_tracer().start_span(
                SPAN_ENGINE_LEVEL, level=size, elements=len(level)
            ):
                if self._progress is not None:
                    self._progress("ctane:level", size, self._arity)
                if (
                    self._checkpoint is not None
                    and size > 1
                    and size != self.resumed_level
                ):
                    # Snapshot the frontier *before* processing the level: every
                    # container step 2 mutates is copied, so the saved state is
                    # exactly what a resumed run needs to replay this level.
                    self._checkpoint.save(
                        {
                            "size": size,
                            "level": list(level),
                            "parent_cplus": {
                                element: set(items)
                                for element, items in parent_cplus.items()
                            },
                            "parent_partitions": dict(parent_partitions),
                            "level_partitions": dict(level_partitions),
                            "results": list(results),
                            "counters": {
                                "candidates_checked": self.candidates_checked,
                                "elements_generated": self.elements_generated,
                                "non_minimal_dropped": self.non_minimal_dropped,
                            },
                        }
                    )
                # --- Step 1: candidate RHS sets ------------------------------ #
                cplus: Dict[Element, Set[CandidateItem]] = {}
                for element in level:
                    cplus[element] = self._intersect_parent_candidates(element, parent_cplus)

                # Group elements by attribute set: the step-2(c) update only ever
                # touches elements with the same attribute set.
                by_attrs: Dict[Tuple[int, ...], List[Element]] = {}
                for element in level:
                    by_attrs.setdefault(element[0], []).append(element)

                # --- Step 2: validity checks and emission -------------------- #
                for element in sorted(level, key=self._generality_rank):
                    attrs, pattern = element
                    candidates = cplus[element]
                    if not candidates:
                        continue
                    for position, rhs in enumerate(attrs):
                        rhs_code = pattern[position]
                        if (rhs, rhs_code) not in candidates:
                            continue
                        lhs_attrs = attrs[:position] + attrs[position + 1:]
                        lhs_pattern = pattern[:position] + pattern[position + 1:]
                        self.candidates_checked += 1
                        # The LHS element is an immediate sub-element, so its
                        # partition is cached in the previous level's table.
                        if not self._cfd_valid_partition(
                            parent_partitions[(lhs_attrs, lhs_pattern)],
                            level_partitions[element],
                            rhs_code,
                        ):
                            continue
                        cfd = self._decode_cfd(lhs_attrs, lhs_pattern, rhs, rhs_code)
                        if self._verify_minimality and not is_minimal(
                            self._relation, cfd, k=self._min_support
                        ):
                            self.non_minimal_dropped += 1
                        else:
                            results.append(cfd)
                        # Step 2(c): prune the candidate sets of this element and
                        # of every element with the same attributes, an identical
                        # RHS pattern value and a more specific LHS pattern.
                        for other in by_attrs[attrs]:
                            other_pattern = other[1]
                            if other_pattern[position] != rhs_code:
                                continue
                            if not all(
                                pattern_leq(other_pattern[i], pattern[i])
                                for i in range(len(attrs))
                                if i != position
                            ):
                                continue
                            other_candidates = cplus[other]
                            other_candidates.discard((rhs, rhs_code))
                            if self._cplus_pruning:
                                for item in list(other_candidates):
                                    if item[0] not in attrs:
                                        other_candidates.discard(item)

                # --- Step 3: prune elements with empty candidate sets -------- #
                if self._cplus_pruning:
                    level = [element for element in level if cplus[element]]

                # --- Step 4: generate the next level ------------------------- #
                if self._max_lhs_size is not None and size > self._max_lhs_size:
                    break
                level_index = set(level)
                next_level: Set[Element] = set()
                next_partitions: Dict[Element, Partition] = {}
                prefixes: Dict[Tuple, List[Element]] = {}
                for element in level:
                    attrs, pattern = element
                    key = (attrs[:-1], tuple(map(self._code_key, pattern[:-1])))
                    prefixes.setdefault(key, []).append(element)
                for bucket in prefixes.values():
                    bucket_sorted = sorted(
                        bucket, key=lambda e: (e[0][-1], self._code_key(e[1][-1]))
                    )
                    for i, (x_attrs, x_pattern) in enumerate(bucket_sorted):
                        for y_attrs, y_pattern in bucket_sorted[i + 1:]:
                            if x_attrs[-1] == y_attrs[-1]:
                                continue  # same attribute, different value: no join
                            z_attrs = x_attrs + (y_attrs[-1],)
                            z_pattern = x_pattern + (y_pattern[-1],)
                            candidate: Element = (z_attrs, z_pattern)
                            if candidate in next_level:
                                continue
                            # A session caches pattern partitions across runs
                            # (they are support-independent), so a warmed
                            # sweep skips the derivation below entirely.
                            cached = (
                                self._session.cached_pattern_partition(candidate)
                                if self._session is not None
                                else None
                            )
                            if cached is not None:
                                if cached.covered_rows < self._min_support:
                                    continue
                                if not self._all_parents_present(
                                    candidate, level_index
                                ):
                                    continue
                                next_partitions[candidate] = cached
                                next_level.add(candidate)
                                continue
                            # Section 4.4: Π(Z, sp) derives from the
                            # generating element's cached Π(X, sp) by joining
                            # in the single new item — a class split for a
                            # wildcard, a row restriction for a constant.
                            # The constant support (the covered rows after a
                            # restriction) is checked before paying for the
                            # class relabelling.
                            x_partition = level_partitions[(x_attrs, x_pattern)]
                            y_attr = y_attrs[-1]
                            y_code = y_pattern[-1]
                            if is_wildcard(y_code):
                                if x_partition.covered_rows < self._min_support:
                                    continue
                                if not self._all_parents_present(
                                    candidate, level_index
                                ):
                                    continue
                                partition = x_partition.refine_by_column(
                                    self._matrix[:, y_attr],
                                    self._column_spans[y_attr],
                                )
                            else:
                                keep = (
                                    self._matrix[x_partition.covered_index, y_attr]
                                    == int(y_code)
                                )
                                if int(np.count_nonzero(keep)) < self._min_support:
                                    continue
                                if not self._all_parents_present(
                                    candidate, level_index
                                ):
                                    continue
                                partition = x_partition.restrict(keep)
                            if self._session is not None:
                                self._session.store_pattern_partition(
                                    candidate, partition
                                )
                            next_partitions[candidate] = partition
                            next_level.add(candidate)
                self.elements_generated += len(next_level)
                parent_cplus = cplus
                parent_partitions = level_partitions
                level_partitions = next_partitions
                level = sorted(next_level, key=self._generality_rank)
                size += 1
        if self._checkpoint is not None:
            self._checkpoint.clear()  # the run completed: nothing to resume
        return results

    # ------------------------------------------------------------------ #
    @staticmethod
    def _code_key(code: PatternCode) -> Tuple[int, int]:
        """A total order on pattern codes (wildcard first, then constants)."""
        return (0, -1) if is_wildcard(code) else (1, int(code))

    @staticmethod
    def _all_parents_present(candidate: Element, level_index: Set[Element]) -> bool:
        """Step 4(b)(iii): every immediate sub-element must be in the level."""
        attrs, pattern = candidate
        for position in range(len(attrs)):
            parent = (
                attrs[:position] + attrs[position + 1:],
                pattern[:position] + pattern[position + 1:],
            )
            if parent not in level_index:
                return False
        return True


def discover_cfds_ctane(
    relation: Relation, min_support: int = 1, **kwargs: object
) -> List[CFD]:
    """Convenience wrapper: run :class:`CTane` on ``relation``."""
    return CTane(relation, min_support, **kwargs).discover()


__all__ = ["CTane", "discover_cfds_ctane"]
