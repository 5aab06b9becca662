"""The ``repro-serve`` command: discovery as an HTTP service.

Run with ``python -m repro.serve.http`` (or the ``repro-serve`` console
script where the package is installed)::

    repro-serve --port 8321 --workers 8 --pool-bytes 268435456 \\
                --cache-dir /var/cache/repro

    curl -s -X POST --data-binary @tax.csv \\
         'http://127.0.0.1:8321/v1/relations?name=tax'
    curl -s -X POST -H 'Content-Type: application/json' \\
         -d '{"relation": "tax", "support": 10}' \\
         http://127.0.0.1:8321/v1/discover
    curl -s http://127.0.0.1:8321/metrics

The process wires one :class:`~repro.serve.DiscoveryService` (its worker
thread pool sized by ``--workers``, its session pool bounded by
``--pool-sessions``/``--pool-bytes``, optionally persistent via
``--cache-dir``) behind one :class:`~repro.serve.http.server.HttpServer`.
``SIGTERM``/``SIGINT`` trigger a graceful drain: in-flight requests finish
(bounded by ``--drain-timeout``), the pool spills its warmed sessions into
the cache store, and the process exits 0 — so a rolling restart hands the
next worker a warm substrate instead of a cold start.

The flags both serving commands take (bind address, queue, deadline, body
cap, fault injection, observability), the fault-plan resolution and the
runner that wires signals to the drain are defined here once; the
``repro-fleet`` command (:mod:`repro.serve.fleet.cli`) uses them too.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.exceptions import ReproError
from repro.obs.cli import (
    add_observability_arguments,
    configure_observability,
    validate_observability,
)
from repro.obs.logs import EventLog
from repro.serve.faults import FaultPlan, fault_points_help, resolve_fault_plan
from repro.serve.http.server import HttpEndpoint, HttpServer, ServerConfig
from repro.serve.pool import SessionPool
from repro.serve.service import DiscoveryService


def add_endpoint_arguments(
    parser: argparse.ArgumentParser,
    *,
    port: int,
    max_queue: int,
    deadline: float,
    unit: str,
    fault_example: str,
) -> None:
    """The flags of both serving commands, with the command's defaults.

    ``unit`` names what the queue and the deadline apply to (``request``
    or ``forward``); ``fault_example`` is a ``--fault`` spec for the help.
    """
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=port,
        help=f"TCP port; 0 picks an ephemeral port (default: {port})",
    )
    parser.add_argument(
        "--max-queue", type=int, default=max_queue,
        help=f"{unit}s allowed to wait for a slot before 503 "
        f"(default: {max_queue})",
    )
    parser.add_argument(
        "--deadline", type=float, default=deadline, metavar="SECONDS",
        help=f"per-{unit} deadline; 0 disables it (default: {deadline:g})",
    )
    parser.add_argument(
        "--max-body-bytes", type=int, default=32 * 2 ** 20,
        help="request body cap in bytes (default: 32 MiB)",
    )
    parser.add_argument(
        "--fault", action="append", default=[], metavar="SPEC",
        help="inject a deterministic fault, 'point:kind[:key=value,...]' "
        f"(repeatable; merged with $REPRO_FAULTS), e.g. '{fault_example}'; "
        "points: " + fault_points_help(),
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help="seed of the fault plan's RNG (default: $REPRO_FAULT_SEED or 0)",
    )
    add_observability_arguments(parser)


def validate_endpoint_arguments(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    """Usage errors in the flags :func:`add_endpoint_arguments` defines."""
    if args.max_queue < 0:
        parser.error("--max-queue must be at least 0")
    if args.deadline < 0:
        parser.error("--deadline must be at least 0")
    validate_observability(args, parser)


def resolve_faults(
    args: argparse.Namespace, parser: argparse.ArgumentParser, log: EventLog
) -> Optional[FaultPlan]:
    """The fault plan of ``--fault``/``--fault-seed`` and ``$REPRO_FAULTS``.

    A malformed spec is a usage error; an active plan is logged as
    ``faults.active`` so a drill's log names what it injected.
    """
    try:
        faults = resolve_fault_plan(args.fault, args.fault_seed)
    except ValueError as exc:
        parser.error(str(exc))
    if faults is not None:
        log.event(
            "faults.active",
            seed=faults.seed,
            rules=[rule.spec() for rule in faults.rules()],
        )
    return faults


def run_endpoint(
    build: Callable[[], HttpEndpoint],
    log: EventLog,
    role: str,
    details: Callable[[HttpEndpoint], Dict[str, object]],
) -> int:
    """Serve the endpoint ``build`` makes until SIGTERM/SIGINT drained it.

    The endpoint is built on the serving loop (Python 3.9 binds asyncio
    primitives to the loop current at construction).  Logs
    ``<role>.listening`` (the address plus ``details(endpoint)``, read once
    the socket is bound) and ``<role>.stopped``; returns the exit code.
    """

    async def serve() -> None:
        endpoint = build()
        await endpoint.start()
        loop = asyncio.get_running_loop()
        drains: List[asyncio.Task] = []  # strong references: the loop's are weak

        def request_drain() -> None:
            drains.append(loop.create_task(endpoint.drain()))

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platforms without loop signal support (Windows)
        log.event(
            f"{role}.listening",
            address=f"http://{endpoint.config.host}:{endpoint.port}",
            **details(endpoint),
        )
        await endpoint.wait_stopped()
        log.event(f"{role}.stopped")

    try:
        asyncio.run(serve())
    finally:
        obs.get_tracer().close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro-serve`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve CFD discovery over HTTP (asyncio, stdlib-only).",
    )
    add_endpoint_arguments(
        parser,
        port=8321,
        max_queue=16,
        deadline=30.0,
        unit="request",
        fault_example="store.put:torn_write:p=1.0,times=1",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="discovery worker threads (default: 4)",
    )
    parser.add_argument(
        "--pool-sessions", type=int, default=8,
        help="max pooled profiler sessions (default: 8)",
    )
    parser.add_argument(
        "--pool-bytes", type=int, default=None,
        help="byte budget over the pooled sessions' caches (default: unbounded)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="persistent cache store: admitted sessions warm-start from DIR, "
        "evicted/drained sessions spill back into it",
    )
    parser.add_argument(
        "--store-max-bytes", type=int, default=None,
        help="size budget of the persistent store; every spill that pushes "
        "the store past it triggers cost-aware GC back down to the budget "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--max-in-flight", type=int, default=8,
        help="requests executing concurrently; more queue (default: 8)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="seconds to wait for in-flight requests on SIGTERM (default: 30)",
    )
    return parser


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.max_in_flight < 1:
        parser.error("--max-in-flight must be at least 1")
    if args.pool_sessions < 1:
        parser.error("--pool-sessions must be at least 1")
    if args.pool_bytes is not None and args.pool_bytes < 1:
        parser.error("--pool-bytes must be at least 1")
    if args.store_max_bytes is not None and args.store_max_bytes < 0:
        parser.error("--store-max-bytes must be at least 0")
    if args.store_max_bytes is not None and args.cache_dir is None:
        parser.error("--store-max-bytes requires --cache-dir")
    validate_endpoint_arguments(args, parser)


def build_service(
    args: argparse.Namespace, faults: Optional[FaultPlan]
) -> DiscoveryService:
    """The configured service: pool budgets, optional persistent store.

    A serving store always starts with a shallow fsck sweep: entries left
    torn by a crash mid-write are quarantined before any session can trip
    over them, so a killed-and-restarted worker degrades to a cold cache
    instead of failing loads.
    """
    store = None
    if args.cache_dir is not None:
        from repro.serve.store import CacheStore

        store = CacheStore(
            args.cache_dir,
            max_bytes=args.store_max_bytes,
            faults=faults,
            sweep=True,
        )
    pool = SessionPool(
        max_sessions=args.pool_sessions,
        max_bytes=args.pool_bytes,
        store=store,
        faults=faults,
    )
    return DiscoveryService(pool=pool, max_workers=args.workers, faults=faults)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-serve`` command; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    log = configure_observability(args, "worker")
    try:
        service = build_service(args, resolve_faults(args, parser, log))
    except ReproError as exc:
        parser.error(str(exc))
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        request_timeout=args.deadline or None,
        max_body_bytes=args.max_body_bytes,
        drain_timeout=args.drain_timeout,
    )
    try:
        return run_endpoint(
            lambda: HttpServer(service, config),
            log,
            "server",
            lambda _server: {
                "workers": service.info()["max_workers"],
                "max_in_flight": config.max_in_flight,
            },
        )
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C fallback
        service.shutdown()
        return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
