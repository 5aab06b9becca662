"""The fleet router: one front door over N ``repro-serve`` workers.

The router speaks the *same* ``/v1`` API as a worker — clients point at the
router and nothing else changes.  What it adds:

**Shard placement.**  Every request that concerns a relation is keyed by the
relation's content fingerprint and forwarded to the worker owning that key
on the consistent-hash ring (:mod:`~repro.serve.fleet.ring`).  Uploads are
parsed just enough to *compute* the fingerprint (the same code path the
worker uses, so both sides always agree); named references are rewritten to
fingerprints when the router saw the upload; inline-rows discover bodies are
fingerprinted the same way.  One relation → one worker → one warm session,
fleet-wide.

**Failover.**  A forward that hits a dead or draining worker retries down
the ring's preference list — exactly the workers the arc remaps onto.  The
router keeps an LRU byte-budgeted cache of raw upload bodies; when a
successor answers ``404 relation_not_found`` the cached body is replayed
onto it first, and the worker's session pool then warm-starts the expensive
structures from the shared :class:`~repro.serve.store.CacheStore`.

**Multi-tenancy.**  Per-client token buckets answer ``429`` (honest
``Retry-After``) ahead of any forwarding, and a weighted-fair queue
schedules the forward slots so one greedy client cannot monopolise the
fleet (:mod:`~repro.serve.fleet.fairness`).  Clients identify themselves
with ``X-Client-Id``; anonymous connections get a per-connection identity.

The router holds **no discovery state** — killing it loses nothing but the
upload-body cache.  All heavy state stays in the workers and the shared
store.

The socket half is the worker's: :class:`FleetRouter` subclasses
:class:`~repro.serve.http.server.HttpEndpoint`, so it shares the worker's
keep-alive loop, protocol-error answers and graceful drain (``SIGTERM``
finishes in-flight forwards, bounded by the forward deadline, while guarded
routes answer ``503 draining``), and it parses uploads, batch envelopes and
trace paths with the worker's own functions from
:mod:`~repro.serve.http.app`.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.obs.export import build_tree
from repro.obs.names import (
    SPAN_FLEET_FAILOVER,
    SPAN_FLEET_FORWARD,
    SPAN_FLEET_QUEUE_WAIT,
    SPAN_FLEET_REQUEST,
)
from repro.serve.faults import FaultPlan
from repro.serve.fleet.breaker import BreakerBoard, RetryBudget
from repro.serve.fleet.client import (
    WorkerClient,
    WorkerResponse,
    WorkerUnavailableError,
)
from repro.serve.fleet.fairness import ClientRegistry, FairQueue, QueueFullError
from repro.serve.fleet.membership import (
    DEFAULT_FAIL_AFTER,
    DEFAULT_INTERVAL,
    FleetMembership,
)
from repro.serve.fleet.metrics import FleetMetrics
from repro.serve.fleet.ring import DEFAULT_VNODES, HashRing
from repro.serve.http import errors
from repro.serve.http.app import (
    needs_admission,
    parse_upload,
    relation_from_rows_document,
    run_batch,
    trace_id_of,
    traces_summary,
)
from repro.serve.http.errors import ApiError
from repro.serve.http.protocol import (
    DEFAULT_MAX_BODY_BYTES,
    HttpRequest,
    HttpResponse,
    error_response,
)
from repro.serve.http.server import EndpointThread, HttpEndpoint, Send

#: Named relation references remembered for rewrite (LRU-bounded).
MAX_TRACKED_NAMES = 4096

#: Route labels the router's metrics use (fixed cardinality).
_ROUTES = {
    ("POST", "/v1/relations"): "upload_relation",
    ("GET", "/v1/relations"): "list_relations",
    ("POST", "/v1/discover"): "discover",
    ("POST", "/v1/batch"): "batch",
    ("GET", "/healthz"): "healthz",
    ("GET", "/metrics"): "metrics",
}

#: Headers never forwarded worker→client or client→worker (hop-by-hop).
_HOP_HEADERS = frozenset(
    {"connection", "keep-alive", "transfer-encoding", "content-length", "host"}
)


@dataclass
class RouterConfig:
    """Tunables of one :class:`FleetRouter`."""

    host: str = "127.0.0.1"
    port: int = 8400
    #: Worker base URLs, e.g. ``["http://127.0.0.1:8321", ...]``.
    workers: List[str] = field(default_factory=list)
    vnodes: int = DEFAULT_VNODES
    #: Per-client token-bucket rate (requests/second); ``0`` disables.
    client_rate: float = 0.0
    client_burst: float = 16.0
    #: Concurrent forwards; more wait in weighted-fair order, then 503.
    forward_slots: int = 16
    max_queue: int = 64
    #: Per-forward deadline in seconds (``None`` disables it).
    request_timeout: Optional[float] = 60.0
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    keep_alive_timeout: float = 30.0
    #: Health-poll cadence and tolerance.
    health_interval: float = DEFAULT_INTERVAL
    fail_after: int = DEFAULT_FAIL_AFTER
    poll_timeout: float = 2.0
    #: Byte budget of the raw upload-body cache backing failover re-uploads.
    upload_cache_bytes: int = 64 * 2 ** 20
    connect_timeout: float = 5.0
    #: Circuit breaker: consecutive transport failures that open a worker's
    #: breaker, and how long it stays open before admitting one probe.
    breaker_fail_threshold: int = 3
    breaker_reset_seconds: float = 5.0
    #: Retry budget: tokens earned per forward and the bucket's capacity.
    #: Each failover retry spends one token; an empty bucket fails fast.
    retry_budget_ratio: float = 0.1
    retry_budget_capacity: float = 10.0
    #: Exponential backoff between failover attempts (seconds); jitter is
    #: drawn from a seeded RNG so chaos drills replay identically.
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    backoff_seed: int = 0
    #: Optional deterministic fault plan threaded into the worker client.
    faults: Optional[FaultPlan] = None


class UploadCache:
    """LRU byte-budgeted cache of raw upload requests, keyed by fingerprint.

    An entry is everything needed to replay the upload verbatim onto another
    worker: the original target (path + query, so ``?name=``/``?header=``
    survive), the content type, and the raw body bytes.
    """

    def __init__(self, max_bytes: int):
        self._max_bytes = max_bytes
        self._entries: "OrderedDict[str, Tuple[str, str, bytes]]" = OrderedDict()
        self._bytes = 0

    def put(self, fingerprint: str, target: str, content_type: str, body: bytes) -> None:
        if len(body) > self._max_bytes:
            return  # one oversized body must not wipe the whole cache
        old = self._entries.pop(fingerprint, None)
        if old is not None:
            self._bytes -= len(old[2])
        self._entries[fingerprint] = (target, content_type, body)
        self._bytes += len(body)
        while self._bytes > self._max_bytes and self._entries:
            _, (_, _, dropped) = self._entries.popitem(last=False)
            self._bytes -= len(dropped)

    def get(self, fingerprint: str) -> Optional[Tuple[str, str, bytes]]:
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self._entries.move_to_end(fingerprint)
        return entry

    @property
    def bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)


class FleetRouter(HttpEndpoint):
    """The asyncio router process: placement, failover, WFQ."""

    def __init__(self, config: RouterConfig):
        if not config.workers:
            raise errors.ApiError(500, "internal", "router needs at least one worker")
        # The drain waits for in-flight forwards as long as one may take.
        super().__init__(config, config.request_timeout)
        self.ring = HashRing(config.vnodes)
        self.faults = config.faults
        self.client = WorkerClient(
            connect_timeout=config.connect_timeout, faults=config.faults
        )
        self.breakers = BreakerBoard(
            config.breaker_fail_threshold, config.breaker_reset_seconds
        )
        self.retry_budget = RetryBudget(
            config.retry_budget_ratio, config.retry_budget_capacity
        )
        self._backoff_rng = random.Random(config.backoff_seed)
        self.membership = FleetMembership(
            config.workers,
            self.ring,
            self.client,
            interval=config.health_interval,
            fail_after=config.fail_after,
            poll_timeout=config.poll_timeout,
        )
        self.clients = ClientRegistry(config.client_rate, config.client_burst)
        self.queue = FairQueue(config.forward_slots, config.max_queue)
        self.metrics = FleetMetrics()
        self.uploads = UploadCache(config.upload_cache_bytes)
        self._names: "OrderedDict[str, str]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def _open(self) -> None:
        """Poll the roster once, so the first request finds a ring."""
        await self.membership.start(initial_poll=True)

    async def _close(self) -> None:
        """Stop the poller and close every pooled worker connection."""
        await self.membership.stop()
        await self.client.close()

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _route_name(self, request: HttpRequest) -> str:
        method = "GET" if request.method == "HEAD" else request.method
        if request.path == "/v1/traces":
            return "traces"
        if trace_id_of(request.path) is not None:
            return "trace"
        return _ROUTES.get((method, request.path), "unrouted")

    async def _answer(self, request: HttpRequest, connection: str, send: Send) -> None:
        """Rate limit → fair queue → dispatch → relay; slot held until the
        response (streams included) is fully on the wire.  Anonymous
        clients are keyed by their connection."""
        client_id = request.client_id or connection
        route = self._route_name(request)
        span = obs.get_tracer().start_trace(
            SPAN_FLEET_REQUEST,
            traceparent=request.headers.get(obs.TRACEPARENT_HEADER),
            method=request.method,
            route=route,
        )
        with span:
            guarded = needs_admission(request)
            response: Optional[HttpResponse] = None
            held = False
            if guarded and self._draining:
                response = error_response(errors.draining(self._retry_after()))
            elif guarded:
                wait = self.clients.admit(client_id)
                if wait is not None:
                    self.metrics.throttled_total.inc()
                    response = error_response(
                        errors.too_many_requests(self._retry_after(extra_wait=wait))
                    )
                else:
                    try:
                        weight = self.clients.weight(client_id)
                        with obs.get_tracer().start_span(SPAN_FLEET_QUEUE_WAIT):
                            await self.queue.acquire(client_id, weight=weight)
                        held = True
                    except QueueFullError:
                        self.metrics.queue_rejections_total.inc()
                        response = error_response(
                            errors.overloaded(self._retry_after())
                        )
            try:
                if response is None:
                    try:
                        response = await self._dispatch(request, client_id)
                    except ApiError as exc:
                        response = error_response(exc)
                    except asyncio.TimeoutError:
                        response = error_response(
                            errors.deadline_exceeded(
                                self.config.request_timeout or 0.0
                            )
                        )
                    except asyncio.CancelledError:
                        raise
                    except Exception as exc:  # noqa: BLE001 - last-resort mapping
                        response = error_response(errors.map_exception(exc))
                span.set_attr("status", response.status)
                if response.status >= 500:
                    span.set_status("error")
                if span.trace_id is not None and not any(
                    name.lower() == obs.TRACE_ID_HEADER
                    for name in response.headers
                ):
                    response.headers[obs.TRACE_ID_HEADER] = span.trace_id
                await send(response)
            finally:
                if held:
                    self.queue.release()
                if response is not None:
                    self.metrics.requests_total.inc(
                        route=route, status=response.status
                    )

    def _retry_after(self, extra_wait: float = 0.0) -> int:
        """The honest hint: observed forward latency × load, floor 1s."""
        return errors.retry_after_hint(
            self.metrics.mean_forward_seconds(),
            self.queue.depth,
            self.queue.slots,
            floor=extra_wait,
        )

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: HttpRequest, client_id: str) -> HttpResponse:
        method = "GET" if request.method == "HEAD" else request.method
        path = request.path
        if path == "/healthz" and method == "GET":
            return self._healthz()
        if path == "/metrics" and method == "GET":
            return self._render_metrics()
        if path == "/v1/relations" and method == "POST":
            return await self._upload(request, client_id)
        if path == "/v1/relations" and method == "GET":
            return await self._list_relations(client_id)
        if path == "/v1/discover" and method == "POST":
            return await self._discover(request, client_id)
        if path == "/v1/batch" and method == "POST":
            return await self._batch(request, client_id)
        if path == "/v1/traces" and method == "GET":
            return traces_summary()
        trace_id = trace_id_of(path)
        if trace_id is not None:
            if method != "GET":
                raise errors.method_not_allowed(request.method, path)
            return await self._trace(trace_id, client_id)
        if path in {p for (_m, p) in _ROUTES} or path == "/v1/traces":
            raise errors.method_not_allowed(request.method, path)
        raise errors.not_found(f"no route for {path}")

    async def _trace(self, trace_id: str, client_id: str) -> HttpResponse:
        """One merged trace: the router's spans plus every member worker's.

        Fan-out is best-effort — an unreachable worker contributes nothing
        (its spans are simply absent) — and records are deduplicated by
        ``span_id``, so the endpoint answers the whole-fleet span tree for
        the acceptance path: router, owning worker, and (after failover) the
        successor all under one trace id.
        """
        merged: Dict[str, Dict[str, object]] = {
            str(record["span_id"]): record
            for record in obs.get_tracer().ring.trace(trace_id)
        }
        headers = {"x-client-id": client_id}

        async def fetch(worker: str) -> List[Dict[str, object]]:
            try:
                response = await self.client.request(
                    worker,
                    "GET",
                    f"/v1/traces/{trace_id}",
                    headers=dict(headers),
                    timeout=self.config.poll_timeout,
                )
            except (WorkerUnavailableError, asyncio.TimeoutError):
                return []
            if response.status != 200:
                return []
            document = response.json()
            spans = document.get("spans") if isinstance(document, dict) else None
            if not isinstance(spans, list):
                return []
            return [record for record in spans if isinstance(record, dict)]

        members = self.membership.members()
        for part in await asyncio.gather(*(fetch(worker) for worker in members)):
            for record in part:
                merged.setdefault(str(record.get("span_id")), record)
        if not merged:
            raise errors.not_found(f"no spans buffered for trace {trace_id!r}")
        records = sorted(
            merged.values(), key=lambda r: float(r.get("wall") or 0.0)
        )
        return HttpResponse.json(
            {
                "trace_id": trace_id,
                "spans": records,
                "tree": build_tree(records),
            }
        )

    def _healthz(self) -> HttpResponse:
        members = self.membership.members()
        if self._draining:
            status = "draining"
        else:
            status = "ok" if members else "no_workers"
        document = {
            "status": status,
            "workers": self.membership.info(),
            "ring": self.ring.info(),
            "queue_depth": self.queue.depth,
            "breakers": {
                worker: state for worker, state in self.breakers.states()
            },
            "retry_tokens": round(self.retry_budget.tokens, 3),
        }
        response = HttpResponse.json(document, status=200 if status == "ok" else 503)
        if status != "ok":
            response.headers["Retry-After"] = str(self._retry_after())
        return response

    def _render_metrics(self) -> HttpResponse:
        members = set(self.membership.members())
        self.metrics.queue_depth.set(self.queue.depth)
        info = self.ring.info()
        self.metrics.ring_workers.set(len(members))
        self.metrics.ring_points.set(int(info["points"]))
        for health in self.membership.info():
            self.metrics.worker_up.set(
                1.0 if health["url"] in members else 0.0, worker=health["url"]
            )
        response = HttpResponse.plain(self.metrics.render(self))
        response.content_type = "text/plain; version=0.0.4; charset=utf-8"
        return response

    # ------------------------------------------------------------------ #
    # relation bookkeeping
    # ------------------------------------------------------------------ #
    def _remember_name(self, name: str, fingerprint: str) -> None:
        self._names[name] = fingerprint
        self._names.move_to_end(name)
        while len(self._names) > MAX_TRACKED_NAMES:
            self._names.popitem(last=False)

    def _resolve_key(self, ref: str) -> str:
        """The placement key of a relation reference (name → fingerprint)."""
        return self._names.get(ref, ref)

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #
    async def _upload(self, request: HttpRequest, client_id: str) -> HttpResponse:
        relation, name = await parse_upload(request)
        fingerprint = relation.fingerprint()
        content_type = request.headers.get("content-type", "text/csv")
        self.uploads.put(fingerprint, request.target, content_type, request.body)
        if name:
            self._remember_name(name, fingerprint)
        self._remember_name(fingerprint, fingerprint)
        response = await self._forward(
            fingerprint,
            "POST",
            request.target,
            body=request.body,
            headers=self._forward_headers(request, client_id),
        )
        return self._relay(response)

    async def _list_relations(self, client_id: str) -> HttpResponse:
        members = self.membership.members()
        if not members:
            raise self._no_workers()
        headers = {"x-client-id": client_id}

        async def list_one(worker: str) -> Dict[str, object]:
            try:
                response = await self.client.request(
                    worker,
                    "GET",
                    "/v1/relations",
                    headers=headers,
                    timeout=self.config.request_timeout,
                )
            except (WorkerUnavailableError, asyncio.TimeoutError):
                return {}
            document = response.json()
            relations = (
                document.get("relations") if isinstance(document, dict) else None
            )
            return relations if isinstance(relations, dict) else {}

        merged: Dict[str, object] = {}
        for part in await asyncio.gather(*(list_one(w) for w in members)):
            merged.update(part)
        return HttpResponse.json({"relations": merged})

    async def _discover(self, request: HttpRequest, client_id: str) -> HttpResponse:
        document = request.json()
        if not isinstance(document, dict):
            raise errors.bad_request("discover body must be a JSON object")
        key, body = await self._place_discover(document, request.body)
        target = request.target
        response = await self._forward(
            key,
            "POST",
            target,
            body=body,
            headers=self._forward_headers(request, client_id),
        )
        return self._relay(response)

    async def _place_discover(
        self, document: Dict[str, object], raw_body: bytes
    ) -> Tuple[str, bytes]:
        """The placement key of a discover body, plus the body to forward
        (rewritten when a known name is resolved to its fingerprint)."""
        ref = document.get("relation")
        if ref is not None:
            if not isinstance(ref, str) or not ref:
                raise errors.bad_request('"relation" must be a non-empty string')
            key = self._resolve_key(ref)
            if key != ref:
                rewritten = dict(document)
                rewritten["relation"] = key
                return key, json.dumps(rewritten).encode("utf-8")
            return key, raw_body
        if "rows" in document or "attributes" in document:
            loop = asyncio.get_running_loop()
            relation = await loop.run_in_executor(
                None, relation_from_rows_document, document
            )
            return relation.fingerprint(), raw_body
        raise errors.bad_request(
            'the discover body needs a "relation" reference or inline '
            '"attributes"/"rows"'
        )

    async def _batch(self, request: HttpRequest, client_id: str) -> HttpResponse:
        headers = {"x-client-id": client_id}

        async def run_one(entry: Dict[str, object]) -> Dict[str, object]:
            body_document = {k: v for k, v in entry.items() if k != "stream"}
            key, body = await self._place_discover(
                body_document, json.dumps(body_document).encode("utf-8")
            )
            response = await self._forward(
                key, "POST", "/v1/discover", body=body, headers=dict(headers)
            )
            result = response.json()
            if isinstance(result, dict):
                return result
            raise errors.bad_gateway("worker answered a non-JSON batch entry")

        return await run_batch(request, run_one, self.config.request_timeout)

    # ------------------------------------------------------------------ #
    # forwarding
    # ------------------------------------------------------------------ #
    @staticmethod
    def _forward_headers(request: HttpRequest, client_id: str) -> Dict[str, str]:
        headers = {
            name: value
            for name, value in request.headers.items()
            if name not in _HOP_HEADERS and name != "expect"
        }
        headers["x-client-id"] = client_id
        return headers

    def _no_workers(self) -> ApiError:
        return ApiError(
            503,
            "no_workers",
            "no healthy workers on the ring",
            retry_after=self._retry_after(),
        )

    async def _forward(
        self,
        key: str,
        method: str,
        target: str,
        *,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> WorkerResponse:
        """Send to the key's owner, failing over down the preference list.

        Connection failures trip the worker's circuit breaker, evict it from
        the ring and retry; workers with an **open** breaker are skipped
        without touching the socket; each retry past the first attempt
        spends a :class:`~repro.serve.fleet.breaker.RetryBudget` token and
        waits a jittered exponential backoff.  ``503 draining`` evicts and
        retries; ``503 overloaded`` retries without evicting (a busy worker
        is still a member).  ``404 relation_not_found`` triggers a re-upload
        of the cached relation body before one same-worker retry.
        """
        attempts = self.ring.preference(key)
        if not attempts:
            raise self._no_workers()
        self.retry_budget.on_request()
        last_error: Optional[ApiError] = None
        previous: Optional[str] = None
        sent = 0
        skipped = 0
        for worker in attempts:
            if not self.breakers.allow(worker):
                self.metrics.breaker_skips_total.inc(worker=worker)
                skipped += 1
                continue
            if sent > 0:
                if not self.retry_budget.try_spend():
                    self.breakers.breaker(worker).cancel_probe()
                    last_error = ApiError(
                        503,
                        "retry_budget_exhausted",
                        "failover retry budget exhausted; failing fast",
                        retry_after=self._retry_after(),
                    )
                    break
                with obs.get_tracer().start_span(
                    SPAN_FLEET_FAILOVER, attempt=sent, successor=worker
                ) as failover_span:
                    if previous is not None:
                        failover_span.set_attr("failed", previous)
                        self.metrics.failovers_total.inc(worker=previous)
                    delay = self._backoff_delay(sent)
                    if delay > 0:
                        await asyncio.sleep(delay)
            started = time.perf_counter()
            try:
                with obs.get_tracer().start_span(
                    SPAN_FLEET_FORWARD, worker=worker, attempt=sent + 1
                ) as forward_span:
                    response = await self._send_once(
                        worker, key, method, target, body, headers
                    )
                    forward_span.set_attr("status", response.status)
            except WorkerUnavailableError:
                self.breakers.record_failure(worker)
                self.membership.mark_dead(worker)
                last_error = errors.bad_gateway(
                    f"worker {worker} failed mid-request"
                )
                previous = worker
                sent += 1
                continue
            except asyncio.TimeoutError:
                # A slow worker is not a transport failure, but an admitted
                # half-open probe must be released or the breaker wedges.
                self.breakers.breaker(worker).cancel_probe()
                raise
            self.breakers.record_success(worker)
            self.metrics.observe_forward(worker, time.perf_counter() - started)
            if response.status == 503:
                code = self._error_code(response)
                if code == "draining":
                    self.membership.mark_dead(worker)
                last_error = ApiError(
                    503,
                    code or "overloaded",
                    f"worker {worker} refused the request",
                    retry_after=self._retry_after(),
                )
                previous = worker
                sent += 1
                continue
            return response
        if last_error is None and skipped:
            raise ApiError(
                503,
                "breaker_open",
                "every candidate worker's circuit breaker is open",
                retry_after=self._retry_after(
                    extra_wait=self.breakers.min_seconds_until_probe()
                ),
            )
        raise last_error if last_error is not None else self._no_workers()

    def _backoff_delay(self, retry_index: int) -> float:
        """Jittered exponential backoff before failover retry ``retry_index``."""
        base = self.config.backoff_base
        if base <= 0:
            return 0.0
        delay = min(self.config.backoff_max, base * (2 ** (retry_index - 1)))
        return delay * (0.5 + 0.5 * self._backoff_rng.random())

    async def _send_once(
        self,
        worker: str,
        key: str,
        method: str,
        target: str,
        body: bytes,
        headers: Optional[Dict[str, str]],
    ) -> WorkerResponse:
        """One forward, with the relation re-upload retry folded in."""
        response = await self.client.request(
            worker,
            method,
            target,
            body=body,
            headers=headers,
            timeout=self.config.request_timeout,
        )
        if response.status == 404 and self._error_code(response) == "relation_not_found":
            cached = self.uploads.get(key)
            if cached is not None:
                upload_target, content_type, upload_body = cached
                upload = await self.client.request(
                    worker,
                    "POST",
                    upload_target,
                    body=upload_body,
                    headers={"content-type": content_type},
                    timeout=self.config.request_timeout,
                )
                if upload.status == 201:
                    self.metrics.reuploads_total.inc()
                    return await self.client.request(
                        worker,
                        method,
                        target,
                        body=body,
                        headers=headers,
                        timeout=self.config.request_timeout,
                    )
        return response

    @staticmethod
    def _error_code(response: WorkerResponse) -> Optional[str]:
        document = response.json()
        if isinstance(document, dict):
            error = document.get("error")
            if isinstance(error, dict):
                code = error.get("code")
                return str(code) if code is not None else None
        return None

    def _relay(self, response: WorkerResponse) -> HttpResponse:
        """A worker response rebuilt for the router's own wire."""
        # The client parser lowercases header names; re-canonicalize so
        # relayed responses match the casing of router-born ones.
        headers = {
            name.title(): value
            for name, value in response.headers.items()
            if name not in _HOP_HEADERS
            and name not in ("server", "date", "content-type")
        }
        if response.chunks is not None:
            relayed = HttpResponse(
                status=response.status,
                content_type=response.content_type,
                headers=headers,
            )
            relayed.stream = response.chunks
            return relayed
        return HttpResponse(
            status=response.status,
            body=response.body or b"",
            content_type=response.content_type,
            headers=headers,
        )


class RouterThread(EndpointThread):
    """A router in a side thread: the fleet counterpart of
    :class:`~repro.serve.http.server.ServerThread`."""

    def __init__(self, config: RouterConfig):
        super().__init__(FleetRouter(config), "repro-fleet")

    @property
    def router(self) -> FleetRouter:
        return self._endpoint


__all__ = [
    "FleetRouter",
    "MAX_TRACKED_NAMES",
    "RouterConfig",
    "RouterThread",
    "UploadCache",
]
