"""The algorithm registry: one extensible catalogue of discovery engines.

The seed code dispatched on algorithm names with an if/elif chain in
``core/discovery.py``, so adding an engine meant editing the front-end, the
CLI and the experiment harness.  Here every engine registers itself with the
:data:`REGISTRY` via the :func:`register_algorithm` decorator, declaring
*capability metadata* (:class:`AlgorithmCapabilities`) that drives

* name-based lookup and a uniform :class:`DiscoveryAlgorithm` run interface,
* ``"auto"`` selection — the paper's Section 8 toolbox guidance expressed
  over capabilities instead of hard-coded names, and
* request validation (e.g. a variable-only request cannot be served by a
  constant-only engine).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Type

from repro.exceptions import DiscoveryError
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.profiler import Profiler
    from repro.api.request import DiscoveryRequest
    from repro.api.result import AlgorithmStats
    from repro.core.cfd import CFD

#: The arity above which ``"auto"`` prefers a depth-first engine; the paper
#: reports CTANE failing to complete beyond arity 17 and FastCFD winning by
#: orders of magnitude from arity 10-15 onwards (Section 6.2.1).
AUTO_ARITY_CUTOFF = 10

#: The relative support (k / |r|) above which ``"auto"`` prefers a levelwise
#: engine when the arity is moderate (the paper: CTANE outperforms FastCFD
#: when the support threshold is large).
AUTO_SUPPORT_RATIO_CUTOFF = 0.05


@dataclass(frozen=True)
class AlgorithmCapabilities:
    """What a discovery engine can do — the registry's dispatch metadata.

    Attributes
    ----------
    constant_cfds / variable_cfds:
        Which rule classes the engine emits.
    supports_max_lhs:
        Whether the engine honours ``max_lhs_size``.
    handles_wide_relations:
        Scales with the arity (the paper's depth-first algorithms); preferred
        by ``"auto"`` beyond :data:`AUTO_ARITY_CUTOFF`.
    prefers_high_support:
        Levelwise engines whose runtime drops as ``k`` grows; preferred by
        ``"auto"`` when ``k/|r|`` exceeds :data:`AUTO_SUPPORT_RATIO_CUTOFF`.
    max_auto_arity:
        Quantitative width ceiling for ``"auto"`` dispatch: the largest
        relation arity at which the engine is still the *right* choice
        (``None``: unbounded).  CTANE declares the paper's arity-17
        completion limit; FastCFD declares 62 — the sweet spot of its
        pairwise int64 bitmask batching, beyond which the walk-based
        ``dfd`` engine takes over.  This is dispatch guidance, not a hard
        capability: every engine now runs at any width via the
        width-unbounded :class:`~repro.relational.attrset.AttrSet` paths.
    auto_candidate:
        Eligible for ``"auto"`` selection (ablation baselines opt out).
    reported_stats:
        Names of the :class:`~repro.api.result.AlgorithmStats` counters the
        engine fills in.
    """

    constant_cfds: bool = True
    variable_cfds: bool = True
    supports_max_lhs: bool = True
    handles_wide_relations: bool = False
    prefers_high_support: bool = False
    max_auto_arity: Optional[int] = None
    auto_candidate: bool = True
    reported_stats: Tuple[str, ...] = ()


class DiscoveryAlgorithm(abc.ABC):
    """Common interface of every registered discovery engine.

    Subclasses declare a unique :attr:`name` and their
    :attr:`capabilities`, and implement :meth:`run`, returning the raw cover
    together with normalised :class:`~repro.api.result.AlgorithmStats`.
    ``session`` is the calling :class:`~repro.api.profiler.Profiler` (or
    ``None`` for one-shot runs); engines use it to reuse cached per-relation
    structures and to report progress.  :attr:`request_options` names the
    constructor options a request may set; :func:`~repro.api.execute`
    rejects any other, so wiring parameters (``session``, ``progress``,
    ``checkpoint``, ``free_result``, ``mining_result``) never come from a
    request.
    """

    name: str = ""
    capabilities: AlgorithmCapabilities = AlgorithmCapabilities()
    request_options: Tuple[str, ...] = ()

    @abc.abstractmethod
    def run(
        self,
        relation: Relation,
        request: "DiscoveryRequest",
        session: Optional["Profiler"] = None,
    ) -> Tuple[List["CFD"], "AlgorithmStats"]:
        """Discover the canonical cover for ``request`` on ``relation``."""


class AlgorithmRegistry:
    """Registry of :class:`DiscoveryAlgorithm` classes, keyed by name."""

    def __init__(self) -> None:
        self._classes: Dict[str, Type[DiscoveryAlgorithm]] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, cls: Type[DiscoveryAlgorithm]) -> Type[DiscoveryAlgorithm]:
        """Register an algorithm class (usable as a decorator)."""
        if not (isinstance(cls, type) and issubclass(cls, DiscoveryAlgorithm)):
            raise DiscoveryError(
                f"{cls!r} is not a DiscoveryAlgorithm subclass"
            )
        name = cls.name
        if not isinstance(name, str) or not name:
            raise DiscoveryError(f"{cls.__name__} declares no algorithm name")
        if name == "auto":
            raise DiscoveryError('"auto" is reserved for registry selection')
        if name in self._classes:
            raise DiscoveryError(f"algorithm {name!r} is already registered")
        if not isinstance(cls.capabilities, AlgorithmCapabilities):
            raise DiscoveryError(
                f"{cls.__name__} declares no AlgorithmCapabilities"
            )
        self._classes[name] = cls
        return cls

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def names(self) -> Tuple[str, ...]:
        """Registered algorithm names, in registration order."""
        return tuple(self._classes)

    def choices(self) -> Tuple[str, ...]:
        """The names plus ``"auto"`` — what front-ends accept."""
        return self.names() + ("auto",)

    def get(self, name: str) -> Type[DiscoveryAlgorithm]:
        """The registered class for ``name`` (:class:`DiscoveryError` if unknown)."""
        try:
            return self._classes[name]
        except KeyError:
            raise DiscoveryError(
                f"unknown algorithm {name!r}; choose one of {self.choices()}"
            ) from None

    def create(self, name: str) -> DiscoveryAlgorithm:
        """A fresh engine instance for ``name``."""
        return self.get(name)()

    def capabilities_of(self, name: str) -> AlgorithmCapabilities:
        """The capability metadata of ``name``."""
        return self.get(name).capabilities

    def __contains__(self, name: object) -> bool:
        return name in self._classes

    def __iter__(self) -> Iterator[str]:
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)

    # ------------------------------------------------------------------ #
    # capability-driven auto-selection (the paper's Section 8 guidance)
    # ------------------------------------------------------------------ #
    def select(self, relation: Relation, request: "DiscoveryRequest") -> str:
        """Pick the algorithm for ``request`` from the declared capabilities.

        * A constant-only request goes to a constant-only engine (CFDMiner):
          variable CFDs are never mined just to be filtered out.
        * Wide relations (arity > :data:`AUTO_ARITY_CUTOFF`) go to the first
          engine that ``handles_wide_relations`` *and* whose quantitative
          ``max_auto_arity`` ceiling accommodates the relation — FastCFD up
          to 62 attributes, the random-walk ``dfd`` engine beyond that.
        * Large relative thresholds (k/|r| ≥
          :data:`AUTO_SUPPORT_RATIO_CUTOFF`) go to an engine that
          ``prefers_high_support`` whose width ceiling fits.
        * Otherwise a width-fitting wide-relation-capable engine wins.
        """
        candidates = [
            name
            for name, cls in self._classes.items()
            if cls.capabilities.auto_candidate
        ]
        if not candidates:
            raise DiscoveryError("no auto-selectable algorithm is registered")
        if request.constant_only:
            for name in candidates:
                caps = self._classes[name].capabilities
                if caps.constant_cfds and not caps.variable_cfds:
                    return name
        general = [
            name
            for name in candidates
            if self._classes[name].capabilities.variable_cfds
        ]
        if not general:
            raise DiscoveryError(
                "no registered algorithm can serve variable CFDs"
            )
        def width_fits(name: str) -> bool:
            ceiling = self._classes[name].capabilities.max_auto_arity
            return ceiling is None or relation.arity <= ceiling

        wide = [
            name
            for name in general
            if self._classes[name].capabilities.handles_wide_relations
        ]
        levelwise = [
            name
            for name in general
            if self._classes[name].capabilities.prefers_high_support
        ]
        wide_fit = [name for name in wide if width_fits(name)]
        levelwise_fit = [name for name in levelwise if width_fits(name)]
        if relation.arity > AUTO_ARITY_CUTOFF and wide_fit:
            return wide_fit[0]
        if (
            levelwise_fit
            and relation.n_rows
            and request.min_support / relation.n_rows >= AUTO_SUPPORT_RATIO_CUTOFF
        ):
            return levelwise_fit[0]
        if wide_fit:
            return wide_fit[0]
        return wide[0] if wide else general[0]


#: The process-wide registry that the decorator and all front doors use.
REGISTRY = AlgorithmRegistry()


def register_algorithm(cls: Type[DiscoveryAlgorithm]) -> Type[DiscoveryAlgorithm]:
    """Class decorator registering a :class:`DiscoveryAlgorithm` in :data:`REGISTRY`."""
    return REGISTRY.register(cls)


__all__ = [
    "AUTO_ARITY_CUTOFF",
    "AUTO_SUPPORT_RATIO_CUTOFF",
    "AlgorithmCapabilities",
    "AlgorithmRegistry",
    "DiscoveryAlgorithm",
    "REGISTRY",
    "register_algorithm",
]
