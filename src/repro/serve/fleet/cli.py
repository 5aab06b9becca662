"""The ``repro-fleet`` command: the shard router in front of N workers.

Run with ``python -m repro.serve.fleet``::

    repro-serve --port 8321 --cache-dir /var/cache/repro &
    repro-serve --port 8322 --cache-dir /var/cache/repro &
    repro-fleet --port 8400 \\
        --worker http://127.0.0.1:8321 --worker http://127.0.0.1:8322

    curl -s -X POST --data-binary @tax.csv \\
         'http://127.0.0.1:8400/v1/relations?name=tax'
    curl -s -X POST -H 'Content-Type: application/json' \\
         -H 'X-Client-Id: team-a' \\
         -d '{"relation": "tax", "support": 10}' \\
         http://127.0.0.1:8400/v1/discover
    curl -s http://127.0.0.1:8400/metrics

Clients speak to the router exactly as they would to a single worker; the
router pins each relation to one worker (consistent hashing), fails over to
the ring successor when a worker dies or drains, rate-limits per client
(``--client-rate``/``--client-burst``) and schedules contended forwards
weighted-fair.  Workers sharing one ``--cache-dir`` hand warm sessions to
each other across failovers through the persistent store.  ``SIGTERM`` and
``SIGINT`` drain the router the way they drain a worker: in-flight forwards
finish (bounded by ``--deadline``), then the process exits 0.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.obs.cli import configure_observability
from repro.serve.faults import FaultPlan
from repro.serve.fleet.router import FleetRouter, RouterConfig
from repro.serve.http.cli import (
    add_endpoint_arguments,
    resolve_faults,
    run_endpoint,
    validate_endpoint_arguments,
)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro-fleet`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="Route CFD discovery across repro-serve workers "
        "(consistent hashing + failover + per-client fairness).",
    )
    add_endpoint_arguments(
        parser,
        port=8400,
        max_queue=64,
        deadline=60.0,
        unit="forward",
        fault_example="fleet.send:reset:p=0.2",
    )
    parser.add_argument(
        "--worker", action="append", default=[], metavar="URL",
        help="a worker base URL (repeat per worker), "
        "e.g. --worker http://127.0.0.1:8321",
    )
    parser.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per worker on the hash ring (default: 64)",
    )
    parser.add_argument(
        "--client-rate", type=float, default=0.0, metavar="RPS",
        help="per-client token-bucket rate in requests/second; "
        "0 disables rate limiting (default: 0)",
    )
    parser.add_argument(
        "--client-burst", type=float, default=16.0,
        help="per-client token-bucket burst capacity (default: 16)",
    )
    parser.add_argument(
        "--forward-slots", type=int, default=16,
        help="concurrent forwards; more wait weighted-fair (default: 16)",
    )
    parser.add_argument(
        "--health-interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between worker health sweeps (default: 1)",
    )
    parser.add_argument(
        "--fail-after", type=int, default=2,
        help="consecutive failed polls before a worker leaves the ring "
        "(default: 2)",
    )
    parser.add_argument(
        "--upload-cache-bytes", type=int, default=64 * 2 ** 20,
        help="byte budget of the raw upload cache backing failover "
        "re-uploads (default: 64 MiB)",
    )
    parser.add_argument(
        "--breaker-fail-threshold", type=int, default=3,
        help="consecutive transport failures that open a worker's circuit "
        "breaker (default: 3)",
    )
    parser.add_argument(
        "--breaker-reset", type=float, default=5.0, metavar="SECONDS",
        help="seconds an open breaker waits before one half-open probe "
        "(default: 5)",
    )
    parser.add_argument(
        "--retry-budget-ratio", type=float, default=0.1,
        help="retry tokens earned per forwarded request; each failover "
        "retry spends one (default: 0.1)",
    )
    parser.add_argument(
        "--retry-budget-capacity", type=float, default=10.0,
        help="retry-token bucket capacity (default: 10)",
    )
    parser.add_argument(
        "--backoff-base", type=float, default=0.05, metavar="SECONDS",
        help="base of the jittered exponential failover backoff; 0 "
        "disables backoff (default: 0.05)",
    )
    parser.add_argument(
        "--backoff-max", type=float, default=2.0, metavar="SECONDS",
        help="failover backoff ceiling (default: 2)",
    )
    return parser


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if not args.worker:
        parser.error("at least one --worker URL is required")
    if args.vnodes < 1:
        parser.error("--vnodes must be at least 1")
    if args.forward_slots < 1:
        parser.error("--forward-slots must be at least 1")
    if args.client_rate < 0:
        parser.error("--client-rate must be at least 0")
    if args.client_burst < 1:
        parser.error("--client-burst must be at least 1")
    if args.health_interval <= 0:
        parser.error("--health-interval must be positive")
    if args.fail_after < 1:
        parser.error("--fail-after must be at least 1")
    if args.breaker_fail_threshold < 1:
        parser.error("--breaker-fail-threshold must be at least 1")
    if args.breaker_reset < 0:
        parser.error("--breaker-reset must be at least 0")
    if args.retry_budget_ratio < 0:
        parser.error("--retry-budget-ratio must be at least 0")
    if args.retry_budget_capacity < 1:
        parser.error("--retry-budget-capacity must be at least 1")
    if args.backoff_base < 0:
        parser.error("--backoff-base must be at least 0")
    if args.backoff_max < 0:
        parser.error("--backoff-max must be at least 0")
    validate_endpoint_arguments(args, parser)


def config_from_args(
    args: argparse.Namespace, faults: Optional[FaultPlan]
) -> RouterConfig:
    """The router configuration the parsed flags describe."""
    return RouterConfig(
        host=args.host,
        port=args.port,
        workers=list(args.worker),
        vnodes=args.vnodes,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        forward_slots=args.forward_slots,
        max_queue=args.max_queue,
        request_timeout=args.deadline or None,
        max_body_bytes=args.max_body_bytes,
        health_interval=args.health_interval,
        fail_after=args.fail_after,
        upload_cache_bytes=args.upload_cache_bytes,
        breaker_fail_threshold=args.breaker_fail_threshold,
        breaker_reset_seconds=args.breaker_reset,
        retry_budget_ratio=args.retry_budget_ratio,
        retry_budget_capacity=args.retry_budget_capacity,
        backoff_base=args.backoff_base,
        backoff_max=args.backoff_max,
        faults=faults,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-fleet`` command; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    log = configure_observability(args, "router")
    config = config_from_args(args, resolve_faults(args, parser, log))
    try:
        return run_endpoint(
            lambda: FleetRouter(config),
            log,
            "router",
            lambda router: {
                "workers_healthy": len(router.membership.members()),
                "workers_total": len(config.workers),
                "vnodes": config.vnodes,
            },
        )
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C fallback
        return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
