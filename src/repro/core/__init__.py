"""Core CFD model and the three discovery algorithms of the paper.

Public surface:

* :mod:`repro.core.pattern` — pattern values, the unnamed variable ``_`` and
  the match order ``≼`` (Section 2.1.2).
* :mod:`repro.core.cfd` — :class:`~repro.core.cfd.CFD` objects and the
  embedded-FD view (Section 2.1.1).
* :mod:`repro.core.validation` — satisfaction, violations and support
  (Sections 2.1.2 and 2.2.2).
* :mod:`repro.core.minimality` — left-reducedness / minimality and canonical
  covers (Section 2.2.1).
* :mod:`repro.core.cfdminer` — CFDMiner, constant CFD discovery (Section 3).
* :mod:`repro.core.ctane` — CTANE, levelwise general CFD discovery (Section 4).
* :mod:`repro.core.fastcfd` — FastCFD / NaiveFast, depth-first general CFD
  discovery (Section 5).
* :mod:`repro.core.bruteforce` — definition-level reference discoverer used as
  the oracle in tests.
* :mod:`repro.core.implication` — constant-CFD implication and cover
  minimisation (the paper's future-work item on CFD inference).
"""

from repro.core.pattern import WILDCARD, PatternTuple, is_wildcard, value_matches
from repro.core.cfd import CFD, ConstantCFD, VariableCFD, cfd_from_fd
from repro.core.validation import (
    holds,
    satisfies,
    support,
    support_count,
    violations,
    violating_tuples,
)
from repro.core.minimality import (
    is_left_reduced,
    is_minimal,
    is_trivial,
    canonical_cover,
)
from repro.core.cfdminer import CFDMiner
from repro.core.ctane import CTane
from repro.core.fastcfd import FastCFD, NaiveFast
from repro.core.bruteforce import discover_bruteforce
from repro.core.implication import implies_constant, minimise_constant_cover
from repro.core.measures import CFDMeasures, confidence, measures, rank_by_interest
from repro.core.sampling import (
    SampledDiscoveryResult,
    discover_with_sampling,
    stratified_sample,
)
from repro.core.tableau import TableauCFD, group_into_tableaux

__all__ = [
    "WILDCARD",
    "PatternTuple",
    "is_wildcard",
    "value_matches",
    "CFD",
    "ConstantCFD",
    "VariableCFD",
    "cfd_from_fd",
    "holds",
    "satisfies",
    "support",
    "support_count",
    "violations",
    "violating_tuples",
    "is_left_reduced",
    "is_minimal",
    "is_trivial",
    "canonical_cover",
    "CFDMiner",
    "CTane",
    "FastCFD",
    "NaiveFast",
    "discover_bruteforce",
    "implies_constant",
    "minimise_constant_cover",
    "CFDMeasures",
    "confidence",
    "measures",
    "rank_by_interest",
    "SampledDiscoveryResult",
    "discover_with_sampling",
    "stratified_sample",
    "TableauCFD",
    "group_into_tableaux",
]
