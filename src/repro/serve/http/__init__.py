"""The HTTP serving subsystem: discovery over a real socket, stdlib-only.

PRs 3–4 made the serving substrate thread-safe and persistent; this package
puts a network front end on it without adding a single dependency
(``asyncio.start_server`` + hand-rolled HTTP/1.1):

* :class:`~repro.serve.http.bridge.AsyncDiscoveryService` — the coroutine
  adapter over the thread-pool :class:`~repro.serve.DiscoveryService`;
  identical concurrent requests keep coalescing through the service's own
  in-flight dedup map, whichever transport they arrive on;
* :class:`~repro.serve.http.app.Application` — the route table
  (``POST /v1/relations``, ``GET /v1/relations``, ``POST /v1/discover``,
  ``POST /v1/batch``, ``GET /healthz``, ``GET /metrics``) and the JSON ↔
  API-object translation, including ``application/x-ndjson`` rule streaming;
* :class:`~repro.serve.http.server.HttpEndpoint` — the listener, the
  keep-alive connection loop and the graceful drain, shared with the fleet
  router, which subclasses it too;
* :class:`~repro.serve.http.server.HttpServer` — the worker endpoint:
  admission control (in-flight semaphore + bounded queue → fast ``503``
  with ``Retry-After``), per-request deadlines, and graceful drain (finish
  in flight, spill the pool to the store, exit) wired to ``SIGTERM`` by the
  ``repro-serve`` CLI, whose flags, fault plan and signal runner the
  ``repro-fleet`` CLI reuses;
* :class:`~repro.serve.http.metrics.HttpMetrics` — Prometheus text
  exposition of the HTTP layer and the substrate's counters;
* :class:`~repro.serve.http.server.ServerThread` — a real-socket server in
  a side thread (the one :class:`~repro.serve.http.server.EndpointThread`
  host) for tests, benchmarks and examples.

See DESIGN.md (“The HTTP serving layer”) for the async↔thread bridge, the
admission-control model and the error taxonomy.
"""

from repro.serve.http.app import Application
from repro.serve.http.bridge import AsyncDiscoveryService
from repro.serve.http.errors import ApiError
from repro.serve.http.metrics import HttpMetrics
from repro.serve.http.server import HttpServer, ServerConfig, ServerThread

__all__ = [
    "ApiError",
    "Application",
    "AsyncDiscoveryService",
    "HttpMetrics",
    "HttpServer",
    "ServerConfig",
    "ServerThread",
]
