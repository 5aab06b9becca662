"""The HTTP application: routes, handlers and the JSON request vocabulary.

The route table (all under ``/v1`` except the operational endpoints):

=========================  =====================================================
``POST /v1/relations``     upload a relation (``text/csv`` body, or JSON
                           ``{"attributes": [...], "rows": [[...], ...]}``),
                           optionally named via ``?name=`` or the JSON
                           ``"name"`` field → 201 with its fingerprint; the
                           relation is registered under both
``GET /v1/relations``      list the registered relations (name → shape/digest)
``POST /v1/discover``      run one :class:`~repro.api.DiscoveryRequest` — the
                           JSON body names the relation (``"relation"``: a
                           registered name or fingerprint) or carries inline
                           ``"attributes"``/``"rows"``, plus the request
                           fields (``support``/``min_support``, ``algorithm``,
                           ``max_lhs``, ``constant_only``, ``variable_only``,
                           ``rank_by``, ``limit_rows``, ``options``).
                           ``"stream": true`` (or ``?stream=jsonl``) answers
                           ``application/x-ndjson``: one header line, one line
                           per rule, written in chunks of about 64 KiB
``POST /v1/batch``         an array of discover bodies (or ``{"requests":
                           [...]}``), executed concurrently through the shared
                           dedup map; per-entry failures come back in place as
                           ``{"error": ...}`` records
``GET /healthz``           liveness + drain state (503 while draining)
``GET /metrics``           Prometheus text (HTTP + service + pool + store)
``GET /v1/traces``         summaries of the traces buffered in the tracer's
                           span ring (most recent last)
``GET /v1/traces/{id}``    one trace's spans, flat and as a nested span tree
=========================  =====================================================

Handlers are transport-thin: they translate JSON ↔ the existing API objects
(:class:`DiscoveryRequest`, :class:`~repro.relational.relation.Relation`)
and delegate every run to the :class:`AsyncDiscoveryService` bridge.  CPU
work (CSV parsing, relation encoding) runs on the executor, never the loop.
The module functions (:func:`parse_upload`, :func:`run_batch`,
:func:`needs_admission`, :func:`trace_id_of`, :func:`traces_summary`) are
what the fleet router calls too, so both sides parse the same way.
"""

from __future__ import annotations

import asyncio
import csv
import io
from typing import Awaitable, Callable, Dict, Optional, Tuple

from repro import obs
from repro.api.request import DiscoveryRequest
from repro.exceptions import ReproError
from repro.obs.export import build_tree
from repro.relational.io import read_csv_text
from repro.relational.relation import Relation
from repro.serve.http import errors
from repro.serve.http.bridge import AsyncDiscoveryService
from repro.serve.http.errors import ApiError
from repro.serve.http.metrics import HttpMetrics
from repro.serve.http.protocol import HttpRequest, HttpResponse

#: JSON fields of a discover body that map onto DiscoveryRequest parameters.
_REQUEST_FIELDS = {
    "support": "min_support",
    "min_support": "min_support",
    "algorithm": "algorithm",
    "max_lhs": "max_lhs_size",
    "max_lhs_size": "max_lhs_size",
    "constant_only": "constant_only",
    "variable_only": "variable_only",
    "rank_by": "rank_by",
    "limit_rows": "limit_rows",
    "options": "options",
}

#: Discover-body fields that are not request parameters.
_ENVELOPE_FIELDS = {"relation", "attributes", "rows", "name", "stream"}

#: Cap on the entries of one /v1/batch document.
MAX_BATCH_REQUESTS = 256

Handler = Callable[[HttpRequest], Awaitable[HttpResponse]]


def request_from_document(document: Dict[str, object]) -> DiscoveryRequest:
    """Build a :class:`DiscoveryRequest` from a discover body's fields.

    Unknown fields are rejected (400) so typos fail loudly; the request's own
    eager validation turns bad parameter values into 400s as well.
    """
    unknown = set(document) - set(_REQUEST_FIELDS) - _ENVELOPE_FIELDS
    if unknown:
        raise errors.bad_request(
            f"unknown request fields {sorted(unknown)}; allowed: "
            f"{sorted(set(_REQUEST_FIELDS) | _ENVELOPE_FIELDS)}"
        )
    kwargs: Dict[str, object] = {}
    for field, parameter in _REQUEST_FIELDS.items():
        if field in document:
            kwargs[parameter] = document[field]
    if "options" in kwargs and not isinstance(kwargs["options"], dict):
        raise errors.bad_request('"options" must be a JSON object')
    try:
        return DiscoveryRequest(**kwargs)
    except TypeError as exc:
        raise errors.bad_request(f"invalid request parameters: {exc}") from exc


def relation_from_rows_document(document: Dict[str, object]) -> Relation:
    """Build a relation from inline ``attributes`` + ``rows`` JSON fields."""
    attributes = document.get("attributes")
    rows = document.get("rows")
    if not isinstance(attributes, list) or not attributes:
        raise errors.bad_request('"attributes" must be a non-empty array')
    if not isinstance(rows, list) or not rows:
        raise errors.bad_request('"rows" must be a non-empty array of arrays')
    for row in rows:
        if not isinstance(row, list):
            raise errors.bad_request('"rows" must be a non-empty array of arrays')
    return Relation.from_rows([str(a) for a in attributes], [tuple(r) for r in rows])


def relation_from_csv_text(
    text: str, *, has_header: bool = True, delimiter: str = ","
) -> Relation:
    """Parse an uploaded CSV body into a relation.

    Delegates to :func:`repro.relational.io.read_csv_text` — the same core
    the CLI's ``read_csv`` uses, so an upload and a file read of identical
    CSV always produce equal fingerprints (shared sessions and store
    entries).  Headerless bodies get ``A0, A1, …`` names sized from the
    first record (quote-aware, like the CLI's ``--no-header`` peek).
    """
    first = next(csv.reader(io.StringIO(text), delimiter=delimiter), None)
    if not first:
        raise errors.bad_request("CSV body holds no records")
    names = [f"A{i}" for i in range(len(first))] if not has_header else None
    relation = read_csv_text(
        text, has_header=has_header, attribute_names=names, delimiter=delimiter
    )
    if relation.n_rows == 0:
        raise errors.bad_request("CSV body holds a header but no data rows")
    return relation


async def parse_upload(request: HttpRequest) -> Tuple[Relation, Optional[str]]:
    """The relation of an upload body and the name it was given, if any.

    The worker registers what this returns, and the fleet router places the
    upload on its ring by the same relation's fingerprint — one parser, so
    the two always agree on where a relation lives.  The parse runs on the
    executor, never the loop.
    """
    loop = asyncio.get_running_loop()
    name = request.query.get("name")
    if request.content_type in ("application/json", "application/x-ndjson"):
        document = request.json()
        if not isinstance(document, dict):
            raise errors.bad_request("upload body must be a JSON object")
        if document.get("name") is not None:
            name = str(document["name"])
        relation = await loop.run_in_executor(
            None, relation_from_rows_document, document
        )
        return relation, name
    # Default to CSV for text/csv, text/plain and unlabelled bodies.
    text = request.text()
    has_header = request.query.get("header", "true").lower() != "false"
    delimiter = request.query.get("delimiter", ",")
    try:
        relation = await loop.run_in_executor(
            None,
            lambda: relation_from_csv_text(
                text, has_header=has_header, delimiter=delimiter
            ),
        )
    except ReproError as exc:
        raise errors.bad_request(f"cannot parse CSV body: {exc}") from exc
    return relation, name


async def run_batch(
    request: HttpRequest,
    run_one: Callable[[Dict[str, object]], Awaitable[Dict[str, object]]],
    timeout: Optional[float],
) -> HttpResponse:
    """The ``/v1/batch`` envelope around ``run_one``, the per-entry runner.

    Entries run concurrently; a failing entry (``timeout`` is the deadline
    it reports) comes back in place as its ``{"error": ...}`` document and
    never fails its neighbours.
    """
    document = request.json()
    entries = document.get("requests") if isinstance(document, dict) else document
    if not isinstance(entries, list) or not entries:
        raise errors.bad_request(
            'batch body must be a non-empty JSON array (or {"requests": [...]})'
        )
    if len(entries) > MAX_BATCH_REQUESTS:
        raise errors.bad_request(f"batch exceeds {MAX_BATCH_REQUESTS} requests")

    async def isolated(entry: object) -> Dict[str, object]:
        try:
            if not isinstance(entry, dict):
                raise errors.bad_request("batch entry is not a JSON object")
            return await run_one(entry)
        except asyncio.CancelledError:
            raise
        except asyncio.TimeoutError:
            return errors.deadline_exceeded(timeout or 0.0).to_document()
        except Exception as exc:  # noqa: BLE001 - isolated per entry
            return errors.map_exception(exc).to_document()

    results = await asyncio.gather(*(isolated(entry) for entry in entries))
    failed = sum(1 for record in results if "error" in record)
    return HttpResponse.json(
        {"requests": len(entries), "failed": failed, "results": list(results)}
    )


def needs_admission(request: HttpRequest) -> bool:
    """Whether admission control (or the router's rate limit) guards a request.

    The operational endpoints (``/healthz``, ``/metrics``, the trace views)
    always answer — a saturated or draining endpoint must stay observable.
    """
    if request.path in ("/healthz", "/metrics"):
        return False
    return not request.path.startswith("/v1/traces")


def trace_id_of(path: str) -> Optional[str]:
    """The trace id of a ``/v1/traces/{trace_id}`` path (else ``None``)."""
    prefix = "/v1/traces/"
    if not path.startswith(prefix):
        return None
    trace_id = path[len(prefix):]
    return trace_id if trace_id and "/" not in trace_id else None


def traces_summary() -> HttpResponse:
    """Summaries of every trace buffered in this process's span ring."""
    tracer = obs.get_tracer()
    return HttpResponse.json(
        {
            "enabled": tracer.enabled,
            "sample_rate": tracer.sample_rate,
            "buffered_spans": len(tracer.ring),
            "traces": tracer.ring.traces(),
        }
    )


class Application:
    """The route table and handlers over one service bridge."""

    def __init__(
        self,
        bridge: AsyncDiscoveryService,
        metrics: HttpMetrics,
        *,
        request_timeout: Optional[float] = None,
        is_draining: Callable[[], bool] = lambda: False,
    ):
        self._bridge = bridge
        self._metrics = metrics
        self._request_timeout = request_timeout
        self._is_draining = is_draining
        self._routes: Dict[str, Dict[str, Tuple[str, Handler]]] = {}
        self._add("POST", "/v1/relations", "upload_relation", self.upload_relation)
        self._add("GET", "/v1/relations", "list_relations", self.list_relations)
        self._add("POST", "/v1/discover", "discover", self.discover)
        self._add("POST", "/v1/batch", "batch", self.batch)
        self._add("GET", "/healthz", "healthz", self.healthz)
        self._add("GET", "/metrics", "metrics", self.metrics)
        self._add("GET", "/v1/traces", "traces", self.traces)

    def _add(self, method: str, path: str, route: str, handler: Handler) -> None:
        self._routes.setdefault(path, {})[method] = (route, handler)

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def route_name(self, request: HttpRequest) -> str:
        """The route label of a request (metrics cardinality stays fixed).

        Mirrors :meth:`dispatch`'s HEAD→GET fallback so probe traffic is
        recorded under the route that actually served it.
        """
        methods = self._routes.get(request.path)
        if methods is None:
            if trace_id_of(request.path) is not None:
                return "trace"
            return "unrouted"
        entry = methods.get(request.method)
        if entry is None and request.method == "HEAD":
            entry = methods.get("GET")
        return entry[0] if entry else "unrouted"

    async def dispatch(self, request: HttpRequest) -> HttpResponse:
        """Route one request; every failure becomes a structured error body."""
        methods = self._routes.get(request.path)
        if methods is None:
            trace_id = trace_id_of(request.path)
            if trace_id is not None:
                if request.method not in ("GET", "HEAD"):
                    raise errors.method_not_allowed(request.method, request.path)
                return await self.trace(trace_id)
            raise errors.not_found(f"no route for {request.path}")
        entry = methods.get(request.method)
        if entry is None and request.method == "HEAD":
            entry = methods.get("GET")
        if entry is None:
            raise errors.method_not_allowed(request.method, request.path)
        _route, handler = entry
        try:
            return await handler(request)
        except (ApiError, asyncio.CancelledError):
            raise
        except asyncio.TimeoutError:
            raise errors.deadline_exceeded(self._request_timeout or 0.0)
        except Exception as exc:  # noqa: BLE001 - mapped to the taxonomy
            raise errors.map_exception(exc) from exc

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #
    async def upload_relation(self, request: HttpRequest) -> HttpResponse:
        relation, name = await parse_upload(request)
        # Registered under its fingerprint always (the canonical reference),
        # and under the caller's name when one was given.
        fingerprint = await self._bridge.register(relation.fingerprint(), relation)
        if name:
            await self._bridge.register(name, relation)
        return HttpResponse.json(
            {
                "fingerprint": fingerprint,
                "name": name,
                "rows": relation.n_rows,
                "arity": relation.arity,
                "attributes": list(relation.schema.names),
            },
            status=201,
        )

    async def list_relations(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json({"relations": self._bridge.registered()})

    async def _resolve_ref(self, document: Dict[str, object]):
        """The relation reference of a discover body: named or inline."""
        ref = document.get("relation")
        inline = "rows" in document or "attributes" in document
        if ref is not None and inline:
            raise errors.bad_request(
                'pass either "relation" or inline "attributes"/"rows", not both'
            )
        if ref is not None:
            if not isinstance(ref, str) or not ref:
                raise errors.bad_request('"relation" must be a non-empty string')
            return ref
        if inline:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None, relation_from_rows_document, document
            )
        raise errors.bad_request(
            'the discover body needs a "relation" reference or inline '
            '"attributes"/"rows"'
        )

    async def discover(self, request: HttpRequest) -> HttpResponse:
        document = request.json()
        if not isinstance(document, dict):
            raise errors.bad_request("discover body must be a JSON object")
        stream = bool(document.get("stream")) or request.query.get("stream") == "jsonl"
        ref = await self._resolve_ref(document)
        discovery_request = request_from_document(document)
        result = await self._bridge.run(
            ref, discovery_request, timeout=self._request_timeout
        )
        # Both forms join the rule texts kept on the (memoised) cover; only
        # the header, whose timings differ per answer, is encoded here.
        if stream:
            return HttpResponse.jsonl(result.iter_jsonl())
        return HttpResponse(body=result.json_bytes() + b"\n")

    async def batch(self, request: HttpRequest) -> HttpResponse:
        async def run_one(entry: Dict[str, object]) -> Dict[str, object]:
            ref = await self._resolve_ref(entry)
            discovery_request = request_from_document(entry)
            result = await self._bridge.run(
                ref, discovery_request, timeout=self._request_timeout
            )
            return result.to_json_dict()

        return await run_batch(request, run_one, self._request_timeout)

    async def healthz(self, request: HttpRequest) -> HttpResponse:
        stats = self._bridge.service.info()
        if self._is_draining():
            response = HttpResponse.json(
                {
                    "status": "draining",
                    "in_flight": stats["in_flight"],
                },
                status=503,
            )
            response.headers["Retry-After"] = str(
                errors.retry_after_hint(
                    self._bridge.service.mean_latency_seconds(),
                    int(stats["in_flight"]),
                    int(stats["max_workers"]),
                    default=5,
                )
            )
            return response
        return HttpResponse.json(
            {
                "status": "ok",
                "in_flight": stats["in_flight"],
                "requests": stats["requests"],
                "pool_sessions": stats["pool"]["sessions"],
            }
        )

    async def metrics(self, request: HttpRequest) -> HttpResponse:
        text = self._metrics.render(self._bridge.stats())
        response = HttpResponse.plain(text)
        response.content_type = "text/plain; version=0.0.4; charset=utf-8"
        return response

    async def traces(self, request: HttpRequest) -> HttpResponse:
        """Summaries of every trace currently buffered in the span ring."""
        return traces_summary()

    async def trace(self, trace_id: str) -> HttpResponse:
        """One trace: the flat span records plus their nested tree."""
        spans = obs.get_tracer().ring.trace(trace_id)
        if not spans:
            raise errors.not_found(f"no buffered trace {trace_id!r}")
        return HttpResponse.json(
            {
                "trace_id": trace_id,
                "spans": spans,
                "tree": build_tree(spans),
            }
        )


__all__ = [
    "Application",
    "MAX_BATCH_REQUESTS",
    "needs_admission",
    "parse_upload",
    "relation_from_csv_text",
    "relation_from_rows_document",
    "request_from_document",
    "run_batch",
    "trace_id_of",
    "traces_summary",
]
