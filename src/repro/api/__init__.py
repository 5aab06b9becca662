"""The unified discovery API — the canonical front door of the library.

The paper positions CFDMiner, CTANE and FastCFD as a *toolbox* (Section 8);
this package makes that toolbox a first-class, extensible API:

* :data:`~repro.api.registry.REGISTRY` /
  :func:`~repro.api.registry.register_algorithm` — every engine registers
  itself with :class:`~repro.api.registry.AlgorithmCapabilities` metadata
  that drives lookup and ``"auto"`` selection;
* :class:`~repro.api.request.DiscoveryRequest` — one frozen configuration
  object instead of scattered keyword arguments;
* :class:`~repro.api.profiler.Profiler` — a session over one relation that
  caches encodings, item-set mining results and difference-set providers so
  repeated runs (support sweeps, sampling validation) skip recomputation;
* :func:`~repro.api.profiler.execute` — the single execution path used by
  :func:`~repro.api.profiler.discover` (``repro.discover()``, the keyword
  front end), the CLI, the experiment harness, sampling-based discovery and
  the cleaning layer.

Quickstart
----------
>>> from repro.relational.relation import Relation
>>> from repro.api import DiscoveryRequest, Profiler
>>> r = Relation.from_rows(
...     ["AC", "CT"],
...     [("908", "MH"), ("908", "MH"), ("212", "NYC")],
... )
>>> profiler = Profiler(r)
>>> result = profiler.run(DiscoveryRequest(min_support=2, algorithm="fastcfd"))
>>> "([AC] -> CT, (908 || MH))" in {str(cfd) for cfd in result.cfds}
True
"""

from repro.api.registry import (
    AUTO_ARITY_CUTOFF,
    AUTO_SUPPORT_RATIO_CUTOFF,
    AlgorithmCapabilities,
    AlgorithmRegistry,
    DiscoveryAlgorithm,
    REGISTRY,
    register_algorithm,
)
from repro.api.request import RANKING_KEYS, DiscoveryRequest
from repro.api.result import AlgorithmStats, DiscoveryResult

# Importing the adapters populates the registry with the paper's engines.
import repro.api.algorithms  # noqa: E402,F401  (registration side effect)

from repro.api.profiler import ProgressCallback, Profiler, discover, execute

__all__ = [
    "AUTO_ARITY_CUTOFF",
    "AUTO_SUPPORT_RATIO_CUTOFF",
    "AlgorithmCapabilities",
    "AlgorithmRegistry",
    "AlgorithmStats",
    "DiscoveryAlgorithm",
    "DiscoveryRequest",
    "DiscoveryResult",
    "ProgressCallback",
    "Profiler",
    "RANKING_KEYS",
    "REGISTRY",
    "discover",
    "execute",
    "register_algorithm",
]
