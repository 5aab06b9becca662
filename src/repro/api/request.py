"""The :class:`DiscoveryRequest` configuration object.

A request captures *what* to discover — threshold, algorithm, shape limits,
rule filters, presentation preferences — as one frozen, hashable value,
replacing the scattered keyword arguments that the CLI, the experiment
harness, sampling-based discovery and the cleaning layer each re-assembled
by hand in the seed code.  Requests validate eagerly so misconfiguration
fails before any mining starts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.exceptions import DiscoveryError

#: Interest measures accepted by ``rank_by`` (see repro.core.measures).
RANKING_KEYS = ("support", "confidence", "conviction", "chi_squared")

OptionItems = Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class DiscoveryRequest:
    """A complete, immutable description of one discovery run.

    Parameters
    ----------
    min_support:
        The support threshold ``k`` (at least 1).
    algorithm:
        A registered algorithm name or ``"auto"`` for capability-driven
        selection (see :meth:`repro.api.registry.AlgorithmRegistry.select`).
    max_lhs_size:
        Optional cap on the LHS size of emitted CFDs.
    constant_only / variable_only:
        Restrict the reported cover to one rule class.  ``constant_only``
        also steers ``"auto"`` towards a constant-only engine so variable
        CFDs are never mined just to be thrown away.
    rank_by:
        Order the reported rules by an interest measure (one of
        :data:`RANKING_KEYS`); ``None`` keeps the algorithm's output order.
    tableau:
        Presentation hint: group the cover into pattern tableaux.
    limit_rows:
        Profile only the first ``limit_rows`` tuples of the relation.
    options:
        Extra keyword arguments forwarded to the algorithm's constructor
        (e.g. ``{"constant_cfds": "skip"}`` for FastCFD).  Accepted as a
        mapping and normalised to a sorted tuple of items so requests stay
        hashable.

    Examples
    --------
    >>> request = DiscoveryRequest(min_support=2, algorithm="fastcfd")
    >>> request.with_support(5).min_support
    5
    """

    min_support: int = 1
    algorithm: str = "auto"
    max_lhs_size: Optional[int] = None
    constant_only: bool = False
    variable_only: bool = False
    rank_by: Optional[str] = None
    tableau: bool = False
    limit_rows: Optional[int] = None
    options: Union[OptionItems, Mapping[str, object]] = ()

    def __post_init__(self) -> None:
        if self.min_support < 1:
            raise DiscoveryError("min_support must be at least 1")
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise DiscoveryError(f"invalid algorithm name: {self.algorithm!r}")
        if self.max_lhs_size is not None and self.max_lhs_size < 1:
            raise DiscoveryError("max_lhs_size must be at least 1 (or None)")
        if self.constant_only and self.variable_only:
            raise DiscoveryError(
                "constant_only and variable_only are mutually exclusive"
            )
        if self.rank_by is not None and self.rank_by not in RANKING_KEYS:
            raise DiscoveryError(
                f"rank_by must be one of {RANKING_KEYS}, got {self.rank_by!r}"
            )
        if self.limit_rows is not None and self.limit_rows < 1:
            raise DiscoveryError("limit_rows must be at least 1 (or None)")
        if isinstance(self.options, Mapping):
            object.__setattr__(
                self, "options", tuple(sorted(self.options.items()))
            )
        else:
            object.__setattr__(self, "options", tuple(self.options))

    @classmethod
    def from_keywords(
        cls,
        min_support: int = 1,
        *,
        algorithm: str = "auto",
        max_lhs_size: Optional[int] = None,
        **options: object,
    ) -> "DiscoveryRequest":
        """The request of the keyword-style front ends (``repro.discover()``,
        :meth:`~repro.api.profiler.Profiler.discover`): every keyword other
        than the three named ones is an engine option."""
        return cls(
            min_support=min_support,
            algorithm=algorithm,
            max_lhs_size=max_lhs_size,
            options=options,
        )

    # ------------------------------------------------------------------ #
    @property
    def options_dict(self) -> Dict[str, object]:
        """The algorithm options as a plain (fresh) dictionary."""
        return dict(self.options)

    def replace(self, **changes: object) -> "DiscoveryRequest":
        """A copy of the request with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_support(self, min_support: int) -> "DiscoveryRequest":
        """The same request at a different support threshold."""
        return self.replace(min_support=min_support)

    def with_algorithm(self, algorithm: str) -> "DiscoveryRequest":
        """The same request pinned to a specific algorithm."""
        return self.replace(algorithm=algorithm)


__all__ = ["RANKING_KEYS", "DiscoveryRequest"]
