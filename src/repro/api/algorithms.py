"""Registered adapters for the toolbox's five discovery engines.

Each adapter wraps one algorithm class behind the uniform
:class:`~repro.api.registry.DiscoveryAlgorithm` interface, declares its
capability metadata, wires in the :class:`~repro.api.profiler.Profiler`
session caches (free/closed mining, difference-set providers, partitions)
when one is supplied, and normalises the engine's counters into
:class:`~repro.api.result.AlgorithmStats`.

Importing this module populates :data:`repro.api.registry.REGISTRY`; the
registration order (cfdminer, ctane, fastcfd, naivefast, dfd) is also the
precedence order used by capability-driven ``"auto"`` selection — the
quantitative ``max_auto_arity`` ceilings decide where FastCFD hands wide
relations over to the random-walk ``dfd`` engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.api.registry import (
    AlgorithmCapabilities,
    DiscoveryAlgorithm,
    register_algorithm,
)
from repro.api.result import AlgorithmStats
from repro.core.cfd import CFD
from repro.core.cfdminer import CFDMiner
from repro.core.ctane import CTane
from repro.core.dfd import DFD
from repro.core.fastcfd import FastCFD, NaiveFast
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.profiler import Profiler
    from repro.api.request import DiscoveryRequest


def _session_progress(session: Optional["Profiler"]):
    """The session's progress callback, or ``None`` for one-shot runs."""
    return session.progress if session is not None else None


@register_algorithm
class CFDMinerAlgorithm(DiscoveryAlgorithm):
    """CFDMiner: constant CFDs via free/closed item-set mining (Section 3)."""

    name = "cfdminer"
    capabilities = AlgorithmCapabilities(
        constant_cfds=True,
        variable_cfds=False,
        supports_max_lhs=True,
        reported_stats=("free_sets", "closed_sets"),
    )

    def run(
        self,
        relation: Relation,
        request: "DiscoveryRequest",
        session: Optional["Profiler"] = None,
    ) -> Tuple[List[CFD], AlgorithmStats]:
        mining = (
            session.free_closed(request.min_support, request.max_lhs_size)
            if session is not None
            else None
        )
        miner = CFDMiner(
            relation,
            request.min_support,
            max_lhs_size=request.max_lhs_size,
            mining_result=mining,
            progress=_session_progress(session),
            **request.options_dict,
        )
        cfds = miner.discover()
        mined = miner.mining_result
        stats = AlgorithmStats(
            algorithm=self.name,
            free_sets=len(mined.free_sets),
            closed_sets=len(mined.closed_to_free),
        )
        return cfds, stats


@register_algorithm
class CTaneAlgorithm(DiscoveryAlgorithm):
    """CTANE: levelwise discovery of general CFDs (Section 4)."""

    name = "ctane"
    capabilities = AlgorithmCapabilities(
        constant_cfds=True,
        variable_cfds=True,
        supports_max_lhs=True,
        prefers_high_support=True,
        # The paper reports CTANE failing to complete beyond arity 17
        # (Section 6.2.1) — "auto" never sends wider relations here.
        max_auto_arity=17,
        reported_stats=(
            "candidates_checked",
            "elements_generated",
            "non_minimal_dropped",
        ),
    )
    request_options = ("cplus_pruning", "verify_minimality")

    def run(
        self,
        relation: Relation,
        request: "DiscoveryRequest",
        session: Optional["Profiler"] = None,
    ) -> Tuple[List[CFD], AlgorithmStats]:
        ctane = CTane(
            relation,
            request.min_support,
            max_lhs_size=request.max_lhs_size,
            session=session,
            progress=_session_progress(session),
            **request.options_dict,
        )
        cfds = ctane.discover()
        extras: Dict[str, object] = {
            "resume_levels_skipped": int(ctane.resume_levels_skipped),
        }
        if ctane.resumed_level is not None:
            extras["resumed_level"] = int(ctane.resumed_level)
        stats = AlgorithmStats(
            algorithm=self.name,
            candidates_checked=ctane.candidates_checked,
            elements_generated=ctane.elements_generated,
            non_minimal_dropped=ctane.non_minimal_dropped,
            extras=extras,
        )
        return cfds, stats


@register_algorithm
class FastCFDAlgorithm(DiscoveryAlgorithm):
    """FastCFD: depth-first discovery with closed-set difference sets (Section 5)."""

    name = "fastcfd"
    capabilities = AlgorithmCapabilities(
        constant_cfds=True,
        variable_cfds=True,
        supports_max_lhs=True,
        handles_wide_relations=True,
        # The sweet spot of the pairwise int64 bitmask batching; wider
        # relations auto-dispatch to the walk-based "dfd" engine (FastCFD
        # itself still runs at any width via the packbits path).
        max_auto_arity=62,
        reported_stats=("free_sets", "closed_sets"),
    )
    request_options = ("constant_cfds", "difference_sets", "dynamic_reordering")

    #: The algorithm class instantiated (NaiveFast overrides this).
    algorithm_class = FastCFD

    def run(
        self,
        relation: Relation,
        request: "DiscoveryRequest",
        session: Optional["Profiler"] = None,
    ) -> Tuple[List[CFD], AlgorithmStats]:
        options: Dict[str, object] = request.options_dict
        free_result = None
        if session is not None:
            free_result = session.free_closed(
                request.min_support, request.max_lhs_size
            )
            if "difference_sets" not in options:
                options["difference_sets"] = self._session_provider(session)
        engine = self.algorithm_class(
            relation,
            request.min_support,
            max_lhs_size=request.max_lhs_size,
            free_result=free_result,
            progress=_session_progress(session),
            **options,
        )
        cfds = engine.discover()
        mined = engine.free_result
        stats = AlgorithmStats(
            algorithm=self.name,
            free_sets=len(mined.free_sets),
            closed_sets=len(mined.closed_to_free),
        )
        return cfds, stats

    @staticmethod
    def _session_provider(session: "Profiler"):
        """The session-cached difference-set provider for this engine."""
        return session.closed_difference_sets()


@register_algorithm
class NaiveFastAlgorithm(FastCFDAlgorithm):
    """NaiveFast: FastCFD with partition-based difference sets (ablation baseline).

    Identical output to FastCFD; kept out of ``"auto"`` selection because it
    exists to exhibit the DBSIZE sensitivity the paper reports.
    """

    name = "naivefast"
    capabilities = AlgorithmCapabilities(
        constant_cfds=True,
        variable_cfds=True,
        supports_max_lhs=True,
        handles_wide_relations=True,
        auto_candidate=False,
        reported_stats=("free_sets", "closed_sets"),
    )

    algorithm_class = NaiveFast

    @staticmethod
    def _session_provider(session: "Profiler"):
        return session.partition_difference_sets()


@register_algorithm
class DFDAlgorithm(DiscoveryAlgorithm):
    """DFD: seeded random-walk lattice traversal for wide relations.

    Output-identical to FastCFD (and asserted against CTANE on seeded
    fixtures), but decides node validity directly on the partition substrate
    instead of pairwise difference sets, so runtime scales with the size of
    the dependency boundary rather than the full lattice — the engine of
    choice for 100+-column relations.  The ``{"seed": int}`` request option
    seeds the walk; the cover is byte-identical for every seed.
    """

    name = "dfd"
    capabilities = AlgorithmCapabilities(
        constant_cfds=True,
        variable_cfds=True,
        supports_max_lhs=True,
        handles_wide_relations=True,
        reported_stats=(
            "candidates_checked",
            "free_sets",
            "closed_sets",
            "nodes_visited",
            "partitions_computed",
            "restarts",
            "walk_seed",
        ),
    )
    request_options = ("constant_cfds", "seed")

    def run(
        self,
        relation: Relation,
        request: "DiscoveryRequest",
        session: Optional["Profiler"] = None,
    ) -> Tuple[List[CFD], AlgorithmStats]:
        free_result = None
        if session is not None:
            free_result = session.free_closed(
                request.min_support, request.max_lhs_size
            )
        engine = DFD(
            relation,
            request.min_support,
            max_lhs_size=request.max_lhs_size,
            free_result=free_result,
            session=session,
            progress=_session_progress(session),
            **request.options_dict,
        )
        cfds = engine.discover()
        mined = engine.free_result
        extras: Dict[str, object] = {
            "nodes_visited": int(engine.nodes_visited),
            "partitions_computed": int(engine.partitions_computed),
            "restarts": int(engine.restarts),
            "walk_seed": int(engine.seed),
        }
        stats = AlgorithmStats(
            algorithm=self.name,
            candidates_checked=engine.candidates_checked,
            free_sets=len(mined.free_sets),
            closed_sets=len(mined.closed_to_free),
            extras=extras,
        )
        return cfds, stats


__all__ = [
    "CFDMinerAlgorithm",
    "CTaneAlgorithm",
    "FastCFDAlgorithm",
    "NaiveFastAlgorithm",
    "DFDAlgorithm",
]
