"""The fleet subsystem: a shard router over N ``repro-serve`` workers.

PR 5 put one worker on a socket; this package scales that worker out.  The
``repro-fleet`` router process (``python -m repro.serve.fleet``) speaks the
same ``/v1`` API and adds, stdlib-only:

* :class:`~repro.serve.fleet.ring.HashRing` — consistent hashing with
  virtual nodes over relation fingerprints, so each relation's warm session
  lives on exactly one worker and membership churn remaps only ~1/N of the
  key space;
* :class:`~repro.serve.fleet.membership.FleetMembership` — ``/healthz``-
  polled liveness: dead or draining workers leave the ring, recovered
  workers get their old arcs back (the ring is deterministic);
* :class:`~repro.serve.fleet.router.FleetRouter` — forwarding with
  failover: a failed forward retries down the ring's preference list, and
  cached upload bodies are replayed so the successor warm-starts from the
  shared :class:`~repro.serve.store.CacheStore`.  It is a
  :class:`~repro.serve.http.server.HttpEndpoint`, so it shares the worker's
  connection loop, drain and request parsers;
* :class:`~repro.serve.fleet.fairness.ClientRegistry` /
  :class:`~repro.serve.fleet.fairness.FairQueue` — per-client token-bucket
  rate limiting (``429`` + honest ``Retry-After``) and weighted-fair
  queueing over the forward slots;
* :class:`~repro.serve.fleet.metrics.FleetMetrics` — the router's own
  Prometheus exposition (forwards, failovers, throttles, ring state);
* :class:`~repro.serve.fleet.router.RouterThread` — a real-socket router in
  a side thread (the worker's thread host) for tests, benchmarks and
  examples.

See DESIGN.md ("Fleet topology") for the placement, failover and fairness
model.
"""

from repro.serve.fleet.client import WorkerClient, WorkerUnavailableError
from repro.serve.fleet.fairness import ClientRegistry, FairQueue, TokenBucket
from repro.serve.fleet.membership import FleetMembership
from repro.serve.fleet.metrics import FleetMetrics
from repro.serve.fleet.ring import DEFAULT_VNODES, HashRing, ring_hash
from repro.serve.fleet.router import FleetRouter, RouterConfig, RouterThread

__all__ = [
    "ClientRegistry",
    "DEFAULT_VNODES",
    "FairQueue",
    "FleetMembership",
    "FleetMetrics",
    "FleetRouter",
    "HashRing",
    "RouterConfig",
    "RouterThread",
    "TokenBucket",
    "WorkerClient",
    "WorkerUnavailableError",
    "ring_hash",
]
