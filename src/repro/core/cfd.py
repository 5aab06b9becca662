"""Conditional functional dependencies (Section 2.1 of the paper).

A CFD ``φ = (X → A, tp)`` couples a standard FD ``X → A`` (the *embedded FD*)
with a pattern tuple ``tp`` over ``X ∪ {A}``.  This module defines the
:class:`CFD` value object together with convenience constructors for the two
canonical classes used throughout the paper (Lemma 1):

* **constant CFDs** — every pattern position is a constant;
* **variable CFDs** — the RHS pattern is the unnamed variable ``_``.

CFD objects are immutable, hashable, and canonicalise their LHS attribute
order so that two CFDs that differ only in attribute listing order compare
equal.  Semantics (satisfaction, support, violations) live in
:mod:`repro.core.validation`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.core.pattern import (
    WILDCARD,
    PatternTuple,
    PatternValue,
    is_wildcard,
    pattern_str,
)
from repro.exceptions import DependencyError


class CFD:
    """A conditional functional dependency ``(X → A, (tp[X] ‖ tp[A]))``.

    Parameters
    ----------
    lhs:
        The LHS attributes ``X`` (any order; canonicalised internally).
    lhs_pattern:
        Pattern values aligned with ``lhs`` (constants or :data:`WILDCARD`).
    rhs:
        The single RHS attribute ``A``.
    rhs_pattern:
        The RHS pattern value (a constant or :data:`WILDCARD`).

    Examples
    --------
    >>> phi = CFD(("CC", "AC"), ("01", "908"), "CT", "MH")
    >>> phi.is_constant
    True
    >>> print(phi)
    ([AC, CC] -> CT, (908, 01 || MH))
    """

    __slots__ = ("_lhs", "_lhs_pattern", "_rhs", "_rhs_pattern", "_json_text")

    def __init__(
        self,
        lhs: Sequence[str],
        lhs_pattern: Sequence[PatternValue],
        rhs: str,
        rhs_pattern: PatternValue,
    ):
        lhs = tuple(lhs)
        lhs_pattern = tuple(lhs_pattern)
        if len(lhs) != len(lhs_pattern):
            raise DependencyError(
                f"{len(lhs)} LHS attributes but {len(lhs_pattern)} pattern values"
            )
        if len(set(lhs)) != len(lhs):
            raise DependencyError(f"duplicate LHS attributes: {lhs}")
        if not isinstance(rhs, str) or not rhs:
            raise DependencyError(f"invalid RHS attribute: {rhs!r}")
        order = sorted(range(len(lhs)), key=lambda i: lhs[i])
        self._lhs: Tuple[str, ...] = tuple(lhs[i] for i in order)
        self._lhs_pattern: Tuple[PatternValue, ...] = tuple(lhs_pattern[i] for i in order)
        self._rhs = rhs
        self._rhs_pattern = rhs_pattern
        # The rule's JSON text, rendered on first encode by
        # repro.api.result.rule_json_text; a CFD is immutable, so it never
        # goes stale.
        self._json_text: Optional[str] = None

    # ------------------------------------------------------------------ #
    # alternative constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def constant(
        cls,
        lhs_pattern: Mapping[str, Hashable],
        rhs: str,
        rhs_value: Hashable,
    ) -> "CFD":
        """A constant CFD from an ``{attribute: constant}`` LHS mapping."""
        return cls(
            tuple(lhs_pattern.keys()), tuple(lhs_pattern.values()), rhs, rhs_value
        )

    @classmethod
    def variable(
        cls,
        lhs_pattern: Mapping[str, PatternValue],
        rhs: str,
    ) -> "CFD":
        """A variable CFD (RHS pattern ``_``) from an LHS mapping."""
        return cls(
            tuple(lhs_pattern.keys()), tuple(lhs_pattern.values()), rhs, WILDCARD
        )

    @classmethod
    def from_pattern_tuple(
        cls, lhs: Sequence[str], rhs: str, pattern: PatternTuple
    ) -> "CFD":
        """Build a CFD from a pattern tuple over ``X ∪ {A}``."""
        mapping = pattern.as_dict()
        missing = [a for a in tuple(lhs) + (rhs,) if a not in mapping]
        if missing:
            raise DependencyError(f"pattern tuple misses attributes {missing}")
        return cls(
            tuple(lhs), tuple(mapping[a] for a in lhs), rhs, mapping[rhs]
        )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def lhs(self) -> Tuple[str, ...]:
        """The LHS attribute set ``X`` (canonical, sorted by name)."""
        return self._lhs

    @property
    def lhs_pattern(self) -> Tuple[PatternValue, ...]:
        """Pattern values aligned with :attr:`lhs`."""
        return self._lhs_pattern

    @property
    def rhs(self) -> str:
        """The RHS attribute ``A``."""
        return self._rhs

    @property
    def rhs_pattern(self) -> PatternValue:
        """The RHS pattern value ``tp[A]``."""
        return self._rhs_pattern

    @property
    def attributes(self) -> Tuple[str, ...]:
        """All attributes mentioned by the CFD (``X`` then ``A``)."""
        return self._lhs + (self._rhs,)

    @property
    def lhs_pattern_tuple(self) -> PatternTuple:
        """The LHS pattern as a :class:`PatternTuple` (paper: ``tp[X]``)."""
        return PatternTuple(self._lhs, self._lhs_pattern)

    @property
    def pattern_tuple(self) -> PatternTuple:
        """The full pattern tuple over ``X ∪ {A}``."""
        return PatternTuple(self.attributes, self._lhs_pattern + (self._rhs_pattern,))

    def lhs_value(self, attribute: str) -> PatternValue:
        """The LHS pattern value of ``attribute``."""
        try:
            return self._lhs_pattern[self._lhs.index(attribute)]
        except ValueError:
            raise DependencyError(
                f"attribute {attribute!r} is not in the LHS {self._lhs}"
            ) from None

    # ------------------------------------------------------------------ #
    # classification (Section 2.1.3)
    # ------------------------------------------------------------------ #
    @property
    def is_constant(self) -> bool:
        """``True`` iff every pattern position (LHS and RHS) is a constant."""
        return not is_wildcard(self._rhs_pattern) and all(
            not is_wildcard(v) for v in self._lhs_pattern
        )

    @property
    def is_variable(self) -> bool:
        """``True`` iff the RHS pattern is the unnamed variable ``_``."""
        return is_wildcard(self._rhs_pattern)

    @property
    def is_trivial(self) -> bool:
        """``True`` iff the RHS attribute also appears in the LHS."""
        return self._rhs in self._lhs

    @property
    def is_pure_fd(self) -> bool:
        """``True`` iff every pattern position is ``_`` (an embedded plain FD)."""
        return self.is_variable and all(is_wildcard(v) for v in self._lhs_pattern)

    @property
    def embedded_fd(self) -> Tuple[Tuple[str, ...], str]:
        """The embedded FD ``X → A`` as ``(lhs_attributes, rhs_attribute)``."""
        return self._lhs, self._rhs

    @property
    def constant_lhs_attributes(self) -> Tuple[str, ...]:
        """LHS attributes that carry a constant (paper: ``Xᶜ``)."""
        return tuple(
            a for a, v in zip(self._lhs, self._lhs_pattern) if not is_wildcard(v)
        )

    @property
    def wildcard_lhs_attributes(self) -> Tuple[str, ...]:
        """LHS attributes that carry the unnamed variable (paper: ``Xᵛ``)."""
        return tuple(
            a for a, v in zip(self._lhs, self._lhs_pattern) if is_wildcard(v)
        )

    # ------------------------------------------------------------------ #
    # derivation helpers used by minimality checking
    # ------------------------------------------------------------------ #
    def drop_lhs_attribute(self, attribute: str) -> "CFD":
        """The CFD obtained by removing ``attribute`` from the LHS."""
        if attribute not in self._lhs:
            raise DependencyError(f"{attribute!r} is not an LHS attribute")
        pairs = [
            (a, v) for a, v in zip(self._lhs, self._lhs_pattern) if a != attribute
        ]
        return CFD(
            tuple(a for a, _ in pairs),
            tuple(v for _, v in pairs),
            self._rhs,
            self._rhs_pattern,
        )

    def generalise_lhs_attribute(self, attribute: str) -> "CFD":
        """The CFD obtained by upgrading one LHS constant to ``_``."""
        value = self.lhs_value(attribute)
        if is_wildcard(value):
            raise DependencyError(f"{attribute!r} already carries the unnamed variable")
        pattern = [
            WILDCARD if a == attribute else v
            for a, v in zip(self._lhs, self._lhs_pattern)
        ]
        return CFD(self._lhs, tuple(pattern), self._rhs, self._rhs_pattern)

    def restrict_lhs(self, attributes: Iterable[str]) -> "CFD":
        """The CFD restricted to the LHS attributes in ``attributes``."""
        keep = set(attributes)
        unknown = keep - set(self._lhs)
        if unknown:
            raise DependencyError(f"attributes {sorted(unknown)} are not in the LHS")
        pairs = [
            (a, v) for a, v in zip(self._lhs, self._lhs_pattern) if a in keep
        ]
        return CFD(
            tuple(a for a, _ in pairs),
            tuple(v for _, v in pairs),
            self._rhs,
            self._rhs_pattern,
        )

    # ------------------------------------------------------------------ #
    # identity / rendering
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CFD)
            and other._lhs == self._lhs
            and other._lhs_pattern == self._lhs_pattern
            and other._rhs == self._rhs
            and other._rhs_pattern == self._rhs_pattern
        )

    def __hash__(self) -> int:
        return hash((self._lhs, self._lhs_pattern, self._rhs, self._rhs_pattern))

    def __repr__(self) -> str:
        return (
            f"CFD(lhs={self._lhs!r}, lhs_pattern={self._lhs_pattern!r}, "
            f"rhs={self._rhs!r}, rhs_pattern={self._rhs_pattern!r})"
        )

    def __str__(self) -> str:
        lhs = ", ".join(self._lhs)
        lhs_pattern = ", ".join(pattern_str(v) for v in self._lhs_pattern)
        rhs_pattern = pattern_str(self._rhs_pattern)
        if not self._lhs:
            return f"([] -> {self._rhs}, ( || {rhs_pattern}))"
        return f"([{lhs}] -> {self._rhs}, ({lhs_pattern} || {rhs_pattern}))"


class ConstantCFD(CFD):
    """A CFD whose pattern tuple consists of constants only."""

    def __init__(
        self,
        lhs: Sequence[str],
        lhs_pattern: Sequence[Hashable],
        rhs: str,
        rhs_pattern: Hashable,
    ):
        if is_wildcard(rhs_pattern) or any(is_wildcard(v) for v in lhs_pattern):
            raise DependencyError("a constant CFD cannot contain the unnamed variable")
        super().__init__(lhs, lhs_pattern, rhs, rhs_pattern)


class VariableCFD(CFD):
    """A CFD whose RHS pattern is the unnamed variable ``_``."""

    def __init__(
        self,
        lhs: Sequence[str],
        lhs_pattern: Sequence[PatternValue],
        rhs: str,
        rhs_pattern: PatternValue = WILDCARD,
    ):
        if not is_wildcard(rhs_pattern):
            raise DependencyError("a variable CFD must have the unnamed variable as RHS pattern")
        super().__init__(lhs, lhs_pattern, rhs, WILDCARD)


def cfd_from_fd(lhs: Sequence[str], rhs: str) -> CFD:
    """Express the plain FD ``X → A`` as the CFD ``(X → A, (_, …, _ ‖ _))``."""
    lhs = tuple(lhs)
    return CFD(lhs, tuple(WILDCARD for _ in lhs), rhs, WILDCARD)


def normalise_constant_cfd(cfd: CFD) -> CFD:
    """Normalise a CFD with a constant RHS pattern (Lemma 1 of the paper).

    When ``tp[A]`` is a constant, every LHS attribute carrying ``_`` can be
    dropped without changing the semantics; the result is a proper constant
    CFD.  Variable CFDs are returned unchanged.
    """
    if is_wildcard(cfd.rhs_pattern):
        return cfd
    pairs = [
        (a, v)
        for a, v in zip(cfd.lhs, cfd.lhs_pattern)
        if not is_wildcard(v)
    ]
    return CFD(
        tuple(a for a, _ in pairs),
        tuple(v for _, v in pairs),
        cfd.rhs,
        cfd.rhs_pattern,
    )


__all__ = [
    "CFD",
    "ConstantCFD",
    "VariableCFD",
    "cfd_from_fd",
    "normalise_constant_cfd",
]
