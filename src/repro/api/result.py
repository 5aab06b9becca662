"""Result objects of the unified discovery API.

:class:`DiscoveryResult` is the value object every discovery entry point
returns.  :class:`AlgorithmStats` normalises the per-algorithm counters —
CTANE's lattice statistics, the item-set mining volumes of
CFDMiner/FastCFD — into one uniform record instead of the ad-hoc ``extra``
dictionary of the seed API; ``extra`` is still populated from the stats so
existing callers keep working.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.cfd import CFD
from repro.core.pattern import is_wildcard


def json_native(value: object) -> object:
    """Coerce ``value`` to strictly JSON-native types (recursively).

    ``json.dumps`` must never need a ``default=`` escape hatch on the
    documents the API emits: numpy scalars become Python numbers, mappings
    become string-keyed dicts, tuples/sets become lists (sets sorted by their
    repr for determinism), and anything else falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, Mapping):
        return {str(key): json_native(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_native(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((json_native(item) for item in value), key=repr)
    return str(value)


@dataclass
class AlgorithmStats:
    """Uniform per-run statistics reported by every registered algorithm.

    Counters that an algorithm does not track are ``None`` and omitted from
    :meth:`as_dict`; algorithm-specific oddities go into :attr:`extras`.
    """

    algorithm: str = ""
    #: CFD validity checks performed (CTANE's ``candidates_checked``).
    candidates_checked: Optional[int] = None
    #: Lattice elements generated across all levels (CTANE).
    elements_generated: Optional[int] = None
    #: Emitted CFDs dropped by the optional minimality re-check (CTANE).
    non_minimal_dropped: Optional[int] = None
    #: k-frequent free item sets mined (CFDMiner, FastCFD).
    free_sets: Optional[int] = None
    #: k-frequent closed item sets mined (CFDMiner, FastCFD).
    closed_sets: Optional[int] = None
    extras: Dict[str, object] = field(default_factory=dict)

    _COUNTERS = (
        "candidates_checked",
        "elements_generated",
        "non_minimal_dropped",
        "free_sets",
        "closed_sets",
    )

    def as_dict(self) -> Dict[str, object]:
        """The tracked counters (``None`` entries omitted) plus the extras."""
        out: Dict[str, object] = {}
        for name in self._COUNTERS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        out.update(self.extras)
        return out


def rule_json_dict(cfd: CFD) -> Dict[str, object]:
    """The JSON rendering of one rule (shared by documents and JSONL lines)."""
    return {
        "lhs": list(cfd.lhs),
        "lhs_pattern": [None if is_wildcard(v) else v for v in cfd.lhs_pattern],
        "rhs": cfd.rhs,
        "rhs_pattern": (
            None if is_wildcard(cfd.rhs_pattern) else cfd.rhs_pattern
        ),
        "constant": cfd.is_constant,
        "text": str(cfd),
    }


def rule_json_text(cfd: CFD) -> str:
    """The encoded :func:`rule_json_dict` of one rule, rendered once per CFD.

    The text is kept on the CFD, which is immutable, so it never goes
    stale.  A memoised cover is one tuple of CFDs that every request of its
    engine configuration shares (rule filters and ``rank_by`` select from
    the same objects), so each of its rules is encoded once, on the first
    answer, and every later answer joins the kept texts.  ``json.dumps``
    escapes non-ASCII, so the text's length is its size in bytes.
    """
    text = cfd._json_text
    if text is None:
        text = json.dumps(json_native(rule_json_dict(cfd)), allow_nan=False)
        cfd._json_text = text
    return text


def kept_rule_text_bytes(cfds: Iterable[CFD]) -> Tuple[int, bool]:
    """Heap bytes of the rule texts :func:`rule_json_text` has kept on
    ``cfds``, and whether every rule has one (then the figure is final)."""
    total = 0
    complete = True
    for cfd in cfds:
        text = cfd._json_text
        if text is None:
            complete = False
        else:
            total += sys.getsizeof(text)
    return total, complete


@dataclass
class DiscoveryResult:
    """The outcome of one discovery run.

    Attributes
    ----------
    algorithm:
        Name of the algorithm that produced the result.
    cfds:
        The discovered canonical cover.
    min_support:
        The support threshold ``k`` used.
    elapsed_seconds:
        Wall-clock time of the discovery call.
    relation_size / relation_arity:
        Shape of the profiled relation (the paper's DBSIZE and ARITY).
    extra:
        Backward-compatible dictionary view of :attr:`stats`.
    stats:
        The normalised :class:`AlgorithmStats` of the run (``None`` only for
        results built by hand).
    """

    algorithm: str
    cfds: List[CFD]
    min_support: int
    elapsed_seconds: float
    relation_size: int
    relation_arity: int
    extra: Dict[str, object] = field(default_factory=dict)
    stats: Optional[AlgorithmStats] = None

    # ------------------------------------------------------------------ #
    @property
    def constant_cfds(self) -> List[CFD]:
        """The constant CFDs of the cover."""
        return [cfd for cfd in self.cfds if cfd.is_constant]

    @property
    def variable_cfds(self) -> List[CFD]:
        """The variable CFDs of the cover."""
        return [cfd for cfd in self.cfds if cfd.is_variable]

    @property
    def n_cfds(self) -> int:
        return len(self.cfds)

    def counts(self) -> Dict[str, int]:
        """Counts of constant/variable/total CFDs (Figures 6, 9, 14-16).

        One pass over the cover.  A rule with a constant RHS under a
        wildcard LHS is neither kind, so the two need not add up to
        ``total``.
        """
        constant = variable = 0
        for cfd in self.cfds:
            if cfd.is_variable:
                variable += 1
            elif cfd.is_constant:
                constant += 1
        return {"constant": constant, "variable": variable, "total": len(self.cfds)}

    def tableaux(self):
        """The cover folded into one pattern tableau per embedded FD."""
        from repro.core.tableau import group_into_tableaux

        return group_into_tableaux(self.cfds)

    def summary(self) -> str:
        """One-line human-readable summary."""
        counts = self.counts()
        return (
            f"{self.algorithm}: {counts['total']} CFDs "
            f"({counts['constant']} constant, {counts['variable']} variable) "
            f"on |r|={self.relation_size}, arity={self.relation_arity}, "
            f"k={self.min_support} in {self.elapsed_seconds:.3f}s"
        )

    def to_json_dict(self) -> Dict[str, object]:
        """A machine-readable rendering of rules and stats (the CLI's --json).

        The document is strictly JSON-native — ``json.dumps`` needs no
        ``default=`` fallback and ``json.loads`` of the dump round-trips to
        the identical dictionary, for every algorithm's stats.
        """
        document = self._header_dict()
        document["rules"] = [rule_json_dict(cfd) for cfd in self.cfds]
        return json_native(document)

    def json_bytes(self) -> bytes:
        """``json.dumps(self.to_json_dict(), allow_nan=False)``, encoded.

        Equal byte for byte, with ``"rules"`` the last key, but built from
        the header and each rule's kept :func:`rule_json_text`: an answer
        from a memoised cover encodes only its header.
        """
        header = json.dumps(json_native(self._header_dict()), allow_nan=False)
        rules = ", ".join(rule_json_text(cfd) for cfd in self.cfds)
        return f'{header[:-1]}, "rules": [{rules}]}}'.encode("ascii")

    def _header_dict(self) -> Dict[str, object]:
        """The result document without its rules (shared by JSON and JSONL)."""
        return {
            "algorithm": self.algorithm,
            "min_support": self.min_support,
            "elapsed_seconds": self.elapsed_seconds,
            "relation": {"rows": self.relation_size, "arity": self.relation_arity},
            "counts": self.counts(),
            "stats": self.stats.as_dict() if self.stats is not None else dict(self.extra),
        }

    def iter_jsonl(self) -> Iterator[str]:
        """Stream the result as JSON Lines (no trailing newlines).

        The first line is the result header (``"kind": "result"`` — everything
        :meth:`to_json_dict` carries except the rules, plus ``n_rules``); each
        following line is one rule (``"kind": "rule"``): its kept
        :func:`rule_json_text` with the tag spliced in before the closing
        brace.  This is what the HTTP layer's ``application/x-ndjson``
        responses write, grouped into chunks of about 64 KiB.
        """
        header = self._header_dict()
        header["kind"] = "result"
        header["n_rules"] = len(self.cfds)
        yield json.dumps(json_native(header), allow_nan=False)
        for cfd in self.cfds:
            yield rule_json_text(cfd)[:-1] + ', "kind": "rule"}'


__all__ = [
    "AlgorithmStats",
    "DiscoveryResult",
    "kept_rule_text_bytes",
    "json_native",
    "rule_json_dict",
    "rule_json_text",
]
