"""A traced ``repro-serve`` worker for the benchmark's traced runs.

It runs the shipped ``repro.serve.http.cli.main`` with the same flags and
defaults (tracing included), after swapping in thin timing subclasses of
the classes that command builds: ``CacheStore``, ``SessionPool``,
``Profiler``, ``DiscoveryService`` and ``HttpServer`` (whose application
and service bridge get timing subclasses too).  The swap rebinds the
module attributes those call sites look up, in this process only.

Each request carries the op id as the trace id of its ``traceparent``
header (set by the load generator, and forwarded by the router), so every
span recorded here names the op it belongs to.  Spans, with the byte and
cache-lookup counts some of them carry, are written to ``--spans-out``
when the worker has drained.

Run as ``python perfbench/traced_worker.py --spans-out FILE <repro-serve flags>``.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import clock  # noqa: E402
from spans import SpanRecorder, current  # noqa: E402

from repro import obs  # noqa: E402
from repro.api import profiler as profiler_module  # noqa: E402
from repro.serve import pool as pool_module  # noqa: E402
from repro.serve import store as store_module  # noqa: E402
from repro.serve.fingerprint import relation_fingerprint  # noqa: E402
from repro.serve.http import cli  # noqa: E402
from repro.serve.http.app import Application  # noqa: E402
from repro.serve.http.bridge import AsyncDiscoveryService  # noqa: E402
from repro.serve.http.server import HttpServer  # noqa: E402
from repro.serve.pool import SessionPool  # noqa: E402
from repro.serve.service import DiscoveryService  # noqa: E402
from repro.serve.store import KIND_CTANE_CHECKPOINT, CacheStore  # noqa: E402

Profiler = profiler_module.Profiler

RECORDER = SpanRecorder(prefix=f"w{os.getpid()}-")
#: Per-request scratch shared by the handler and the bridge (same task).
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)


def _entry_bytes(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


class TimedStore(CacheStore):
    def put(self, fingerprint, kind, params, *, meta=None, arrays=None):
        name = "store.checkpoint" if kind == KIND_CTANE_CHECKPOINT else "store.put"
        started = clock()
        path = super().put(fingerprint, kind, params, meta=meta, arrays=arrays)
        ended = clock()
        # Sized outside the timed interval: the entry as written, header
        # (meta included) and arrays.
        RECORDER.add(name, started, ended, bytes=_entry_bytes(path))
        return path

    def get(self, fingerprint, kind, params):
        with RECORDER.span("store.get"):
            return super().get(fingerprint, kind, params)

    def load_all(self, fingerprint):
        with RECORDER.span("store.get"):
            return super().load_all(fingerprint)


class TimedPool(SessionPool):
    def session(self, relation, *, fingerprint=None):
        key = fingerprint if fingerprint is not None else relation_fingerprint(relation)
        name = "pool.session_hit" if key in self else "pool.session_miss"
        with RECORDER.span(name):
            return super().session(relation, fingerprint=key)


def _lookups(info) -> tuple:
    hits = sum(bucket["hits"] for bucket in info.values())
    return hits, hits + sum(bucket["misses"] for bucket in info.values())


class TimedProfiler(Profiler):
    def run(self, request):
        before = _lookups(self.cache_info())
        with RECORDER.span("api.run") as span:
            result = super().run(request)
            after = _lookups(self.cache_info())
            span.attrs["cache_hits"] = after[0] - before[0]
            span.attrs["cache_lookups"] = after[1] - before[1]
        return result

    def engine_result(self, algorithm, request, build):
        def timed_build():
            with RECORDER.span(f"core.{algorithm}"):
                return build()

        return super().engine_result(algorithm, request, timed_build)

    def free_closed(self, min_support, max_lhs_size=None):
        with RECORDER.span("itemsets.free_closed"):
            return super().free_closed(min_support, max_lhs_size)

    def closed_difference_sets(self):
        with RECORDER.span("fd.diffsets"):
            return super().closed_difference_sets()


class TimedService(DiscoveryService):
    def submit(self, relation_ref, request):
        span = RECORDER.span("service.submit")
        with span.active():
            # Current while enqueueing, so the context the service hands to
            # its executor makes this span the parent of the run's spans.
            future = super().submit(relation_ref, request)
        future.add_done_callback(lambda _f: span.finish())
        return future


class TimedBridge(AsyncDiscoveryService):
    async def run(self, relation_ref, request, *, timeout=None):
        result = await super().run(relation_ref, request, timeout=timeout)
        scratch = _REQUEST.get()
        if scratch is not None:
            scratch["run_end"] = clock()
        return result

    async def register(self, name, relation):
        scratch = _REQUEST.get()
        if scratch is not None and "register_start" not in scratch:
            scratch["register_start"] = clock()
        return await super().register(name, relation)


def _timed_lines(lines, op):
    """Yield the JSONL lines, timing only the encoder's own work."""
    spent = 0.0
    first = None
    size = 0
    iterator = iter(lines)
    while True:
        started = clock()
        if first is None:
            first = started
        try:
            line = next(iterator)
        except StopIteration:
            spent += clock() - started
            break
        spent += clock() - started
        size += len(line.encode("utf-8")) + 1
        yield line
    RECORDER.add("api.encode", first, first + spent, op=op, bytes=size)


class TimedApplication(Application):
    async def dispatch(self, request):
        parsed = obs.parse_traceparent(request.headers.get(obs.TRACEPARENT_HEADER, ""))
        if parsed is None:
            return await super().dispatch(request)
        token = _REQUEST.set({})
        try:
            with RECORDER.span("http.handler", op=parsed[0]):
                return await super().dispatch(request)
        finally:
            _REQUEST.reset(token)

    async def discover(self, request):
        response = await super().discover(request)
        scratch = _REQUEST.get()
        handler = current()
        if scratch is None or handler is None or "run_end" not in scratch:
            return response
        if response.stream is not None:
            response.stream = _timed_lines(response.stream, handler.op)
        else:
            RECORDER.add(
                "api.encode", scratch["run_end"], clock(), parent=handler,
                bytes=len(response.body),
            )
        return response

    async def upload_relation(self, request):
        started = clock()
        response = await super().upload_relation(request)
        scratch = _REQUEST.get()
        handler = current()
        if scratch is not None and handler is not None and "register_start" in scratch:
            RECORDER.add(
                "relational.load", started, scratch["register_start"], parent=handler
            )
        return response


class TimedHttpServer(HttpServer):
    def __init__(self, service, config=None):
        super().__init__(service, config)
        self.bridge = TimedBridge(service)
        self.app = TimedApplication(
            self.bridge,
            self.metrics,
            request_timeout=self.config.request_timeout,
            is_draining=lambda: self._draining,
        )


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        sys.stderr.write("usage: traced_worker.py --spans-out FILE <repro-serve flags>\n")
        return 2
    out = Path(argv[1])
    store_module.CacheStore = TimedStore
    pool_module.Profiler = TimedProfiler
    profiler_module.Profiler = TimedProfiler
    cli.SessionPool = TimedPool
    cli.DiscoveryService = TimedService
    cli.HttpServer = TimedHttpServer
    code = cli.main(argv[2:])
    out.write_text(json.dumps({"spans": RECORDER.records}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
