"""repro — a reproduction of "Discovering Conditional Functional Dependencies".

The package implements the three discovery algorithms of Fan, Geerts, Li and
Xiong (ICDE 2009 / TKDE 2011) — CFDMiner, CTANE and FastCFD/NaiveFast —
together with every substrate they rely on: a relational storage layer,
free/closed item-set mining, classical FD discovery (TANE, FastFD), synthetic
workload generators, a CFD-based data-cleaning layer and an experiment harness
that regenerates the paper's figures.

Quickstart
----------
The canonical entry point is the unified discovery API in :mod:`repro.api`:
build a :class:`~repro.api.DiscoveryRequest`, open a
:class:`~repro.api.Profiler` session over a relation, and run.  The session
caches the expensive per-relation structures (encodings, item-set mining,
difference-set indexes), so sweeping the support threshold — or re-running
after sampling — skips recomputation:

>>> from repro import DiscoveryRequest, Profiler, Relation
>>> r = Relation.from_rows(
...     ["CC", "AC", "CT"],
...     [
...         ("01", "908", "MH"),
...         ("01", "908", "MH"),
...         ("01", "212", "NYC"),
...         ("44", "131", "EDI"),
...         ("44", "131", "EDI"),
...     ],
... )
>>> profiler = Profiler(r)
>>> result = profiler.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
>>> any(str(cfd) == "([AC] -> CT, (908 || MH))" for cfd in result.cfds)
True
>>> sweep = profiler.run(DiscoveryRequest(min_support=3, algorithm="fastcfd"))
>>> sweep.n_cfds <= result.n_cfds  # higher threshold, smaller cover
True

The one-shot :func:`repro.discover` front end from the seed API keeps working:

>>> repro_result = discover(r, min_support=2, algorithm="fastcfd")
>>> sorted(map(str, repro_result.cfds)) == sorted(map(str, result.cfds))
True

New algorithms plug in through the registry: subclass
:class:`~repro.api.DiscoveryAlgorithm`, declare
:class:`~repro.api.AlgorithmCapabilities`, and decorate with
:func:`~repro.api.register_algorithm`; ``algorithm="auto"`` dispatch is
driven by the declared capabilities (the paper's Section 8 guidance).
"""

# NOTE: repro.core must initialise before repro.api is imported directly —
# core.pattern / core.cfd and the engines load first, then core.sampling
# pulls repro.api in at a point where every module the api needs is already
# in sys.modules.
from repro.core.cfd import CFD, ConstantCFD, VariableCFD, cfd_from_fd
from repro.api import (
    AlgorithmCapabilities,
    AlgorithmRegistry,
    AlgorithmStats,
    DiscoveryAlgorithm,
    DiscoveryRequest,
    DiscoveryResult,
    Profiler,
    REGISTRY,
    discover,
    register_algorithm,
)
from repro.api import execute as execute_request
from repro.core.cfdminer import CFDMiner, discover_constant_cfds
from repro.core.ctane import CTane, discover_cfds_ctane
from repro.core.fastcfd import FastCFD, NaiveFast, discover_cfds_fastcfd
from repro.core.measures import confidence, measures, rank_by_interest
from repro.core.minimality import canonical_cover, is_left_reduced, is_minimal
from repro.core.pattern import WILDCARD, PatternTuple
from repro.core.sampling import discover_with_sampling, stratified_sample
from repro.core.tableau import TableauCFD, group_into_tableaux
from repro.core.validation import holds, satisfies, support, support_count, violations
from repro.fd.fd import FD
from repro.fd.fastfd import FastFD as FastFDAlgorithm
from repro.fd.tane import Tane
from repro.relational.io import read_csv, write_csv
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.serve import CacheStore, DiscoveryService, SessionPool, relation_fingerprint

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # relational substrate
    "Schema",
    "Relation",
    "read_csv",
    "write_csv",
    # CFD model
    "WILDCARD",
    "PatternTuple",
    "CFD",
    "ConstantCFD",
    "VariableCFD",
    "cfd_from_fd",
    "satisfies",
    "holds",
    "support",
    "support_count",
    "violations",
    "is_minimal",
    "is_left_reduced",
    "canonical_cover",
    # unified discovery API (the canonical front door)
    "AlgorithmCapabilities",
    "AlgorithmRegistry",
    "AlgorithmStats",
    "DiscoveryAlgorithm",
    "DiscoveryRequest",
    "Profiler",
    "REGISTRY",
    "execute_request",
    "register_algorithm",
    # discovery algorithms
    "CFDMiner",
    "discover_constant_cfds",
    "CTane",
    "discover_cfds_ctane",
    "FastCFD",
    "NaiveFast",
    "discover_cfds_fastcfd",
    "discover",
    "DiscoveryResult",
    # extensions: tableaux, interest measures, sampling-based discovery
    "TableauCFD",
    "group_into_tableaux",
    "confidence",
    "measures",
    "rank_by_interest",
    "stratified_sample",
    "discover_with_sampling",
    # serving layer: session pool, request dedup/batching
    "DiscoveryService",
    "CacheStore",
    "SessionPool",
    "relation_fingerprint",
    # FD baselines
    "FD",
    "Tane",
    "FastFDAlgorithm",
]
