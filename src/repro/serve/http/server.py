"""The asyncio HTTP endpoint: listener, keep-alive loop, drain, thread host.

:class:`HttpEndpoint` is the socket half that the worker and the fleet
router share: the ``asyncio.start_server`` listener, the keep-alive
connection loop (protocol errors answered on the raw socket), the count of
active requests and the graceful drain.  :class:`HttpServer` (the worker)
and :class:`~repro.serve.fleet.router.FleetRouter` subclass it and say only
how one request is answered.  The worker puts three serving-discipline
layers, which the handlers never see, in front of the
:class:`~repro.serve.http.app.Application`:

**Admission control.**  At most ``max_in_flight`` requests execute
concurrently (an :class:`asyncio.Semaphore`); up to ``max_queue`` more may
wait for a slot.  Anything beyond that is refused *immediately* with
``503`` + ``Retry-After`` — a saturated server degrades to fast rejections,
never to an unbounded queue or a hang.  ``/healthz`` and ``/metrics`` bypass
admission so the server stays observable while saturated or draining.

**Deadlines.**  Each admitted request runs under ``request_timeout``
(``asyncio.wait_for``); expiry answers ``504``.  The underlying discovery
run is *not* cancelled — it may be shared with coalesced waiters, and its
completion warms the pooled session, so the timed-out work is not wasted.

**Graceful drain.**  :meth:`HttpEndpoint.drain` (wired to
``SIGTERM``/``SIGINT`` by both CLIs) answers ``503 draining`` on guarded
routes, waits for in-flight requests to finish (the worker bounds the wait
by ``drain_timeout``, the router by its forward deadline), closes the
listener, then shuts down what the endpoint owns — for the worker, the
service, which spills the session pool into the persistent store when one
is attached, so the next process warm-starts.

:class:`EndpointThread` hosts an endpoint inside a dedicated thread + event
loop for tests, benchmarks and examples that need a real socket next to
ordinary blocking client code; :class:`ServerThread` is the worker's.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Optional

from repro import obs
from repro.devtools.lockcheck import maybe_watch_loop
from repro.exceptions import DiscoveryError
from repro.obs.names import (
    SPAN_HTTP_ADMISSION,
    SPAN_HTTP_PARSE,
    SPAN_HTTP_REQUEST,
)
from repro.serve.http import errors
from repro.serve.http.app import Application, needs_admission
from repro.serve.http.bridge import AsyncDiscoveryService
from repro.serve.http.metrics import HttpMetrics
from repro.serve.http.protocol import (
    DEFAULT_MAX_BODY_BYTES,
    HttpRequest,
    HttpResponse,
    ProtocolError,
    error_response,
    read_request,
    write_response,
)
from repro.serve.service import DiscoveryService

#: Methods worth their own metrics label; anything else (the method token is
#: client-controlled free text) is folded into "OTHER" so a hostile client
#: cannot grow the label space — every serving resource stays bounded.
_KNOWN_METHODS = frozenset(
    {"GET", "HEAD", "POST", "PUT", "PATCH", "DELETE", "OPTIONS"}
)

#: Writes one response for the request being answered.
Send = Callable[[HttpResponse], Awaitable[None]]


@dataclass
class ServerConfig:
    """Tunables of one :class:`HttpServer`."""

    host: str = "127.0.0.1"
    port: int = 8321
    #: Requests executing concurrently; more wait, beyond the queue → 503.
    max_in_flight: int = 8
    #: Requests allowed to wait for an execution slot before 503.
    max_queue: int = 16
    #: Per-request deadline in seconds (``None`` disables it).
    request_timeout: Optional[float] = 30.0
    #: Cap on request bodies.
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    #: Idle seconds a keep-alive connection may sit between requests.
    keep_alive_timeout: float = 30.0
    #: Upper bound on waiting for in-flight requests during drain.
    drain_timeout: float = 30.0


class HttpEndpoint:
    """One listening socket: keep-alive loop, active count, graceful drain.

    Subclasses answer one request at a time in :meth:`_answer`, and set up
    and tear down what they own in :meth:`_open` (before the bind) and
    :meth:`_close` (after the drain).  ``config`` needs ``host``, ``port``,
    ``max_body_bytes`` and ``keep_alive_timeout``; ``drain_timeout`` bounds
    the drain's wait for in-flight requests (``None``: no bound).
    """

    def __init__(self, config, drain_timeout: Optional[float]) -> None:
        self.config = config
        self._drain_timeout = drain_timeout
        self._server: Optional[asyncio.base_events.Server] = None
        # Loop-affine primitives are created in start() so they bind the
        # serving loop, not whatever loop (if any) constructed the object —
        # Python 3.9 binds them at construction time.
        self._drained: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._active = 0
        self._draining = False
        self._connections = itertools.count(1)

    # ------------------------------------------------------------------ #
    # what subclasses supply
    # ------------------------------------------------------------------ #
    async def _open(self) -> None:
        """Set up loop-bound state before the listener binds."""

    async def _close(self) -> None:
        """Release what the endpoint owns once the drain has finished."""

    async def _answer(self, request: HttpRequest, connection: str, send: Send) -> None:
        """Answer one request; ``connection`` names the connection it came on."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket (``port=0`` picks an ephemeral port)."""
        self._drained = asyncio.Event()
        self._stopped = asyncio.Event()
        await self._open()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.config.port = sockets[0].getsockname()[1]

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        return self.config.port

    @property
    def draining(self) -> bool:
        return self._draining

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed."""
        if self._stopped is None:
            raise DiscoveryError(f"{type(self).__name__}.wait_stopped() before start()")
        await self._stopped.wait()

    async def drain(self) -> None:
        """Finish in-flight work, then shut the listener and the endpoint down.

        Idempotent.  The listener stays open *while* draining — load-balancer
        probes must be able to reach ``/healthz`` and read the 503
        ``draining`` answer — but guarded routes are refused immediately and
        keep-alive is switched off, so connections bleed away.
        """
        if self._stopped is None:
            raise DiscoveryError(f"{type(self).__name__}.drain() before start()")
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        self._signal_drained()
        try:
            await asyncio.wait_for(self._drained.wait(), timeout=self._drain_timeout)
        except asyncio.TimeoutError:
            pass  # stragglers are past their deadline; shut down anyway
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._close()
        self._stopped.set()

    async def stop(self) -> None:
        """Alias of :meth:`drain` (the graceful path is the only path)."""
        await self.drain()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = f"conn-{next(self._connections)}"
        try:
            while True:
                try:
                    # The timeout bounds only the idle wait for the next
                    # request line — a slow in-progress upload is not idle.
                    request = await read_request(
                        reader,
                        writer,
                        max_body_bytes=self.config.max_body_bytes,
                        head_timeout=self.config.keep_alive_timeout,
                    )
                except asyncio.TimeoutError:
                    break  # idle keep-alive connection: close quietly
                except ProtocolError as exc:
                    response = error_response(
                        errors.ApiError(exc.status, "protocol_error", exc.message)
                    )
                    await write_response(writer, response, keep_alive=False)
                    break
                if request is None:
                    break  # clean EOF between requests
                keep_alive = request.keep_alive and not self._draining
                head_only = request.method == "HEAD"

                async def send(response: HttpResponse) -> None:
                    await write_response(
                        writer, response, keep_alive=keep_alive, head_only=head_only
                    )

                # A request counts as active until its response is fully
                # written — drain must never truncate a chunked stream.
                self._active += 1
                try:
                    await self._answer(request, connection, send)
                finally:
                    self._active -= 1
                    self._signal_drained()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            # Loop teardown cancels lingering keep-alive connections; end
            # the handler quietly instead of letting the cancellation bounce
            # through the stream-protocol callback as logged noise.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _signal_drained(self) -> None:
        """Wake drain() once no request is being answered.

        A request counts from its read until its response is written, so a
        worker request still queued for an execution slot — never told 503 —
        keeps the drain waiting too.
        """
        if self._draining and self._active == 0 and self._drained is not None:
            self._drained.set()


class HttpServer(HttpEndpoint):
    """The worker: one serving endpoint over one :class:`DiscoveryService`."""

    def __init__(self, service: DiscoveryService, config: Optional[ServerConfig] = None):
        config = config or ServerConfig()
        super().__init__(config, config.drain_timeout)
        self.service = service
        self.bridge = AsyncDiscoveryService(service)
        self.metrics = HttpMetrics()
        self.app = Application(
            self.bridge,
            self.metrics,
            request_timeout=self.config.request_timeout,
            is_draining=lambda: self._draining,
        )
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._waiting = 0
        self._executing = 0

    async def _open(self) -> None:
        self._semaphore = asyncio.Semaphore(self.config.max_in_flight)

    async def _close(self) -> None:
        """Shut the service down: drain its executor, spill the pool.

        The shutdown is a blocking call, so it runs on the default executor
        and the loop is never blocked.
        """
        loop = asyncio.get_running_loop()
        try:
            # The executor drain is bounded too: an abandoned (504'd) engine
            # run can linger far past any grace period an orchestrator gives
            # us, and being SIGKILLed mid-shutdown would lose the spill.
            await asyncio.wait_for(
                loop.run_in_executor(None, self.service.shutdown),
                timeout=self.config.drain_timeout,
            )
        except asyncio.TimeoutError:
            self.service.shutdown(wait=False)  # refuse new work, don't block
            store = self.service.pool.store
            if store is not None:
                try:
                    # Spill what the pool holds now; the lingering run's
                    # session misses out, everything else stays warm.
                    await loop.run_in_executor(None, self.service.pool.persist)
                except Exception:  # noqa: BLE001 - spill is best-effort
                    pass

    async def _answer(self, request: HttpRequest, connection: str, send: Send) -> None:
        """Admission control + deadline + dispatch, all failures mapped.

        The whole exchange runs under the request's root span: a new trace,
        or — when the fleet router forwarded a ``traceparent`` header — a
        continuation of the router's, so one trace id covers every hop.
        """
        route = self.app.route_name(request)
        method = request.method if request.method in _KNOWN_METHODS else "OTHER"
        span = obs.get_tracer().start_trace(
            SPAN_HTTP_REQUEST,
            traceparent=request.headers.get(obs.TRACEPARENT_HEADER),
            method=method,
            route=route,
        )
        with span:
            if request.parse_seconds and span.sampled:
                span.child_record(
                    SPAN_HTTP_PARSE,
                    start=span.start - request.parse_seconds,
                    duration=request.parse_seconds,
                    bytes=len(request.body),
                )
            response = await self._respond_admitted(request, method, route)
            span.set_attr("status", response.status)
            if response.status == 504:
                span.set_status("error", error="deadline")
            if span.trace_id is not None:
                response.headers.setdefault(obs.TRACE_ID_HEADER, span.trace_id)
        await send(response)

    async def _respond_admitted(
        self, request: HttpRequest, method: str, route: str
    ) -> HttpResponse:
        started = time.perf_counter()
        guarded = needs_admission(request)
        response: HttpResponse
        if guarded and self._draining:
            self.metrics.admission_rejections_total.inc(reason="draining")
            response = error_response(errors.draining(self._retry_after(default=5)))
            self.metrics.observe(
                method, route, response.status, time.perf_counter() - started
            )
            return response
        # Refuse only when no execution slot is free AND the wait queue is
        # full — a free slot must always admit, even with max_queue=0.
        if (
            guarded
            and self._semaphore.locked()
            and self._waiting >= self.config.max_queue
        ):
            self.metrics.admission_rejections_total.inc(reason="overloaded")
            response = error_response(errors.overloaded(self._retry_after()))
            self.metrics.observe(
                method, route, response.status, time.perf_counter() - started
            )
            return response
        if guarded:
            self._waiting += 1
            try:
                with obs.get_tracer().start_span(SPAN_HTTP_ADMISSION):
                    await self._semaphore.acquire()
            finally:
                self._waiting -= 1
            self._executing += 1
        try:
            self.metrics.in_flight.inc()
            try:
                response = await self.app.dispatch(request)
            except errors.ApiError as exc:
                response = error_response(exc)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - last-resort mapping
                response = error_response(errors.map_exception(exc))
        finally:
            self.metrics.in_flight.dec()
            if guarded:
                self._executing -= 1
                self._semaphore.release()
        self.metrics.observe(
            method, route, response.status, time.perf_counter() - started
        )
        return response

    def _retry_after(self, default: int = 1) -> int:
        """An honest ``Retry-After`` for this server's 503s.

        Derived from the service's observed mean run latency and the work
        ahead of the caller — each executing and each queued request once —
        what the backlog actually costs, not a constant.
        """
        return errors.retry_after_hint(
            self.service.mean_latency_seconds(),
            self._executing + self._waiting,
            self.config.max_in_flight,
            default=default,
        )


class EndpointThread:
    """A real-socket endpoint hosted in its own thread + event loop.

    The harness of the integration tests, the serving benchmark sections and
    the examples: start, talk to ``http://host:port`` with any blocking
    client, stop (gracefully: the endpoint drains).  ``name`` labels the
    loop thread and its watchdog.
    """

    def __init__(self, endpoint: HttpEndpoint, name: str):
        self._endpoint = endpoint
        self._name = name
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._drain_future = None

    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._endpoint.config.host

    @property
    def port(self) -> int:
        return self._endpoint.config.port

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    def start(self) -> "EndpointThread":
        """Boot the loop thread; returns once the socket is bound."""
        if self._thread is not None:
            raise DiscoveryError(f"{self._name} is already started")
        self._thread = threading.Thread(
            target=self._run, name=f"{self._name}-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise DiscoveryError(f"{self._name} failed to start within 30s")
        if self._startup_error is not None:
            raise DiscoveryError(
                f"{self._name} failed to start: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self._endpoint.start())
            except BaseException as exc:  # noqa: BLE001 - surfaced to start()
                self._startup_error = exc
                return
            finally:
                self._started.set()
            watchdog = maybe_watch_loop(loop, self._name)
            try:
                loop.run_until_complete(self._endpoint.wait_stopped())
            finally:
                if watchdog is not None:
                    watchdog.stop()
        finally:
            try:
                # Lingering connection tasks (idle keep-alive reads) are
                # cancelled and reaped so the loop closes without warnings.
                pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()

    def begin_drain(self) -> None:
        """Kick off a graceful drain without waiting for it (tests use this
        to observe the draining state from outside).  Idempotent."""
        if self._loop is not None and self._drain_future is None:
            self._drain_future = asyncio.run_coroutine_threadsafe(
                self._endpoint.drain(), self._loop
            )

    def stop(self, timeout: float = 60.0) -> None:
        """Drain gracefully and join the loop thread.  Idempotent.

        A drain already begun is waited for, not scheduled again: once it
        completes the loop closes, and a second one would never run.
        """
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive():
            try:
                self.begin_drain()
                self._drain_future.result(timeout=timeout)
            except Exception:  # noqa: BLE001 - drain is best-effort on stop
                pass
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "EndpointThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class ServerThread(EndpointThread):
    """A worker in a side thread (``config`` defaults to an ephemeral port).

    >>> from repro.serve import DiscoveryService
    >>> with ServerThread(DiscoveryService(max_workers=2)) as server:
    ...     address = f"http://{server.host}:{server.port}"  # doctest: +SKIP
    """

    def __init__(
        self,
        service: DiscoveryService,
        config: Optional[ServerConfig] = None,
    ):
        super().__init__(
            HttpServer(service, config or ServerConfig(port=0)), "repro-serve"
        )

    @property
    def server(self) -> HttpServer:
        return self._endpoint


__all__ = [
    "EndpointThread",
    "HttpEndpoint",
    "HttpServer",
    "ServerConfig",
    "ServerThread",
]
