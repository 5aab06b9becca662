"""Command-line interface: discover CFDs in a CSV file.

Installed as the ``repro-discover`` console script::

    repro-discover data.csv --support 10 --algorithm fastcfd
    repro-discover data.csv --support 10 --constant-only --tableau
    repro-discover data.csv --support 10 --json
    repro-discover data.csv --support 10 --output rules.txt
    repro-discover data.csv --batch requests.json --workers 4

The CSV's first row is taken as the header unless ``--no-header`` is given
(in which case attributes are named ``A0, A1, …``).  The discovered canonical
cover is printed one rule per line (optionally grouped into pattern tableaux,
or as a machine-readable JSON document with ``--json``) together with a short
summary on stderr.

The command is a thin shell over the unified discovery API: the flags are
packed into one :class:`repro.api.DiscoveryRequest` and executed through a
:class:`repro.api.Profiler`, so ``--constant-only`` with the default
``auto`` algorithm routes to a constant-only engine (CFDMiner) *before* any
variable CFDs are mined.

``--batch requests.json`` switches to the serving layer: the file holds a
JSON array (or a ``{"requests": [...]}`` document) of request objects whose
fields override the command-line flags — ``csv``, ``support``, ``algorithm``,
``max_lhs``, ``limit_rows``, ``constant_only``, ``variable_only``,
``rank_by``, ``options`` — and the whole batch is executed concurrently
through a :class:`repro.serve.DiscoveryService` (pooled sessions, identical
in-flight requests deduplicated).  The output is one JSON document with the
per-request results and the service/pool counters; a malformed or failing
entry becomes an ``{"error": ...}`` record in place while the rest of the
batch completes, and the exit code is non-zero only when every request
failed.

``--cache-dir DIR`` attaches a persistent :class:`repro.serve.CacheStore`:
the session warm-starts from structures a previous invocation (or another
worker) dumped, and writes its own warmed caches back after the run, so a
repeated discovery is served from disk instead of recomputed.

``--cache-gc MAX_BYTES`` (with ``--cache-dir``) is a maintenance mode: it
shrinks the store to at most ``MAX_BYTES`` using the pool's cost-aware
eviction score — entries with the lowest recorded build cost go first,
oldest files break ties — prints a summary on stderr and exits without
discovering anything (no CSV argument needed).

``--stats`` (with ``--batch``) prints the service's latency aggregates and
pool/store counters on stderr after the batch — the terminal twin of the
HTTP server's ``/metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import RANKING_KEYS, REGISTRY, DiscoveryRequest, Profiler
from repro.exceptions import DiscoveryError, ReproError
from repro.relational.io import read_csv
from repro.relational.relation import Relation


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro-discover`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-discover",
        description="Discover minimal, k-frequent conditional functional "
        "dependencies (CFDs) in a CSV file.",
    )
    parser.add_argument(
        "csv", type=Path, nargs="?", default=None,
        help="path of the CSV file to profile (not needed with "
        "--cache-gc/--cache-fsck)",
    )
    parser.add_argument(
        "--support", "-k", type=int, default=1,
        help="support threshold k (default: 1)",
    )
    parser.add_argument(
        "--algorithm", "-a", choices=REGISTRY.choices(), default="auto",
        help="discovery algorithm (default: auto — the paper's guidance; "
        "wide relations beyond 62 attributes dispatch to the random-walk "
        "dfd engine, whose --json stats report nodes visited, partitions "
        "computed and walk restarts)",
    )
    parser.add_argument(
        "--max-lhs", type=int, default=None,
        help="maximum number of LHS attributes (default: unbounded)",
    )
    parser.add_argument(
        "--limit-rows", type=int, default=None,
        help="read at most this many data rows from the CSV",
    )
    parser.add_argument(
        "--no-header", action="store_true",
        help="the CSV has no header row; attributes are named A0, A1, ...",
    )
    parser.add_argument(
        "--delimiter", default=",", help="CSV field delimiter (default: ',')"
    )
    parser.add_argument(
        "--constant-only", action="store_true",
        help="report only constant CFDs",
    )
    parser.add_argument(
        "--variable-only", action="store_true",
        help="report only variable CFDs",
    )
    parser.add_argument(
        "--tableau", action="store_true",
        help="group the rules into one pattern tableau per embedded FD",
    )
    parser.add_argument(
        "--rank-by", choices=list(RANKING_KEYS),
        default=None, help="rank the reported rules by an interest measure",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit rules and run statistics as machine-readable JSON",
    )
    parser.add_argument(
        "--batch", type=Path, default=None, metavar="REQUESTS_JSON",
        help="serve a JSON file of request objects concurrently through the "
        "session pool; entry fields override the command-line flags",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker threads for --batch (default: 4)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="persistent cache store: warm-start from DIR before discovery "
        "and write the warmed session caches back afterwards, so repeated "
        "invocations (and other workers) skip recomputation",
    )
    parser.add_argument(
        "--cache-gc", type=int, default=None, metavar="MAX_BYTES",
        help="maintenance mode: shrink the --cache-dir store to at most "
        "MAX_BYTES (cost-aware: cheapest-to-rebuild entries evicted first, "
        "oldest files break ties) and exit without discovering",
    )
    parser.add_argument(
        "--cache-fsck", action="store_true",
        help="maintenance mode: deep-verify every entry of the --cache-dir "
        "store (magic, header, checksums), quarantine corrupt files under "
        "<dir>/quarantine/ with .reason sidecars, and exit without "
        "discovering (exit 1 when anything was quarantined)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="with --batch: print the service's latency aggregates and "
        "pool/store counters on stderr after the batch",
    )
    parser.add_argument(
        "--output", "-o", type=Path, default=None,
        help="write the rules to this file instead of stdout",
    )
    return parser


def _peek_arity(path: Path, delimiter: str) -> int:
    """Number of fields of the first CSV record (quote-aware)."""
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        first = next(reader, [])
    return len(first)


def _load_relation(
    args: argparse.Namespace, path: Optional[Path] = None, limit: Optional[int] = None
) -> Relation:
    path = args.csv if path is None else path
    if args.no_header:
        # Peek at the first record to size the schema; csv handles quoted
        # fields that a naive split on the delimiter would miscount.
        arity = _peek_arity(path, args.delimiter)
        names = [f"A{i}" for i in range(arity)]
        return read_csv(
            path,
            has_header=False,
            attribute_names=names,
            delimiter=args.delimiter,
            limit=limit,
        )
    return read_csv(path, delimiter=args.delimiter, limit=limit)


def _open_store(cache_dir: Optional[Path]):
    """The ``--cache-dir`` store, or ``None`` (unset, or unusable — warned)."""
    if cache_dir is None:
        return None
    from repro.serve import CacheStore

    try:
        return CacheStore(cache_dir)
    except ReproError as exc:
        print(f"# cache-store warning: {exc}", file=sys.stderr)
        return None


def _store_io(operation) -> int:
    """Run one store operation; failures warn on stderr and count as 0."""
    from repro.exceptions import CacheStoreError

    try:
        return operation()
    except (CacheStoreError, OSError) as exc:
        print(f"# cache-store warning: {exc}", file=sys.stderr)
        return 0


def _run_cache_gc(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The ``--cache-gc`` maintenance mode: shrink the store and exit."""
    from repro.exceptions import CacheStoreError
    from repro.serve import CacheStore

    if args.cache_dir is None:
        parser.error("--cache-gc requires --cache-dir")
    if args.cache_gc < 0:
        parser.error("--cache-gc must be at least 0")
    try:
        store = CacheStore(args.cache_dir)
        summary = store.gc(args.cache_gc)
    except (CacheStoreError, OSError) as exc:
        print(f"# cache-gc failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"# cache-gc {args.cache_dir}: removed {summary['removed_entries']} "
        f"entries ({summary['removed_bytes']} bytes), "
        f"{summary['remaining_entries']} entries / "
        f"{summary['remaining_bytes']} bytes remain "
        f"(budget {summary['max_bytes']})",
        file=sys.stderr,
    )
    return 0


def _run_cache_fsck(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The ``--cache-fsck`` maintenance mode: verify, quarantine, report."""
    from repro.exceptions import CacheStoreError
    from repro.serve import CacheStore

    if args.cache_dir is None:
        parser.error("--cache-fsck requires --cache-dir")
    try:
        store = CacheStore(args.cache_dir)
        report = store.fsck(deep=True)
    except (CacheStoreError, OSError) as exc:
        print(f"# cache-fsck failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"# cache-fsck {args.cache_dir}: {report['checked']} entries checked, "
        f"{report['healthy']} healthy, {report['quarantined']} quarantined",
        file=sys.stderr,
    )
    for problem in report["problems"]:
        print(
            f"# cache-fsck   {problem['path']}: {problem['reason']}",
            file=sys.stderr,
        )
    if report["quarantined"]:
        print(
            f"# cache-fsck quarantined files moved to {report['quarantine_dir']}",
            file=sys.stderr,
        )
    return 1 if report["quarantined"] else 0


def _print_service_stats(stats: Dict) -> None:
    """The ``--batch --stats`` stderr summary (one snapshot, human-sized)."""
    latency = stats["latency"]
    if latency["count"]:
        line = (
            f"# stats: {latency['count']} executed runs, latency "
            f"mean {latency['mean_seconds'] * 1000:.1f}ms / "
            f"min {latency['min_seconds'] * 1000:.1f}ms / "
            f"max {latency['max_seconds'] * 1000:.1f}ms"
        )
    else:
        line = "# stats: no executed runs"
    print(line, file=sys.stderr)
    pool = stats["pool"]
    print(
        f"# stats: pool {pool['sessions']} sessions / "
        f"{pool['estimated_bytes']} bytes (hits {pool['hits']}, "
        f"misses {pool['misses']}, evictions {pool['evictions']}), "
        f"dedup {stats['deduplicated']}, failed {stats['failed']}",
        file=sys.stderr,
    )
    store = stats.get("store")
    if store is not None:
        print(
            f"# stats: store {store['entries']} entries / {store['bytes']} "
            f"bytes (loads {store['loads']}, writes {store['writes']})",
            file=sys.stderr,
        )


#: Batch-entry fields that override the corresponding command-line flags.
_BATCH_FIELDS = (
    "csv",
    "support",
    "algorithm",
    "max_lhs",
    "limit_rows",
    "constant_only",
    "variable_only",
    "rank_by",
    "options",
)


def _batch_entries(path: Path, parser: argparse.ArgumentParser) -> List[Dict]:
    """Parse the ``--batch`` request file (file-level problems abort).

    Per-entry problems (wrong shape, unknown fields, bad parameters, missing
    CSVs) do **not** abort the batch: they surface as ``{"error": ...}``
    records in the output document so one malformed request cannot take down
    the requests submitted alongside it.
    """
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read batch file {path}: {exc}")
    entries = spec.get("requests") if isinstance(spec, dict) else spec
    if not isinstance(entries, list) or not entries:
        parser.error(
            f"batch file {path} must hold a non-empty JSON array of request "
            'objects (or {"requests": [...]})'
        )
    return entries


def _batch_job(
    entry: object,
    args: argparse.Namespace,
    relations: Dict[Path, Relation],
) -> Tuple[Relation, DiscoveryRequest]:
    """Resolve one batch entry to ``(relation, request)`` or raise."""
    if not isinstance(entry, dict):
        raise DiscoveryError(f"batch entry is not a JSON object: {entry!r}")
    unknown = set(entry) - set(_BATCH_FIELDS)
    if unknown:
        raise DiscoveryError(
            f"unknown fields {sorted(unknown)}; allowed: {list(_BATCH_FIELDS)}"
        )
    csv_path = Path(entry.get("csv", args.csv))
    if not csv_path.exists():
        raise DiscoveryError(f"no such file: {csv_path}")
    if csv_path not in relations:
        relations[csv_path] = _load_relation(args, path=csv_path)
    request = DiscoveryRequest(
        min_support=entry.get("support", args.support),
        algorithm=entry.get("algorithm", args.algorithm),
        max_lhs_size=entry.get("max_lhs", args.max_lhs),
        constant_only=entry.get("constant_only", args.constant_only),
        variable_only=entry.get("variable_only", args.variable_only),
        rank_by=entry.get("rank_by", args.rank_by),
        limit_rows=entry.get("limit_rows", args.limit_rows),
        options=entry.get("options", {}),
    )
    return relations[csv_path], request


def _run_batch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Serve every batch entry concurrently through the discovery service.

    Exit code 0 as long as at least one request succeeded; non-zero only when
    *every* request failed.
    """
    from repro.serve import DiscoveryService, SessionPool

    entries = _batch_entries(args.batch, parser)
    store = _open_store(args.cache_dir)
    relations: Dict[Path, Relation] = {}
    results_json: List[Optional[Dict]] = [None] * len(entries)
    jobs: List[Tuple[int, Relation, DiscoveryRequest]] = []
    for index, entry in enumerate(entries):
        try:
            relation, request = _batch_job(entry, args, relations)
        except (ReproError, OSError, TypeError, ValueError) as exc:
            results_json[index] = {"error": str(exc)}
            continue
        jobs.append((index, relation, request))

    started = time.perf_counter()
    pool = SessionPool(store=store)
    with DiscoveryService(pool=pool, max_workers=args.workers) as service:
        futures = [
            (index, service.submit(relation, request))
            for index, relation, request in jobs
        ]
        for index, future in futures:
            try:
                results_json[index] = future.result().to_json_dict()
            except Exception as exc:  # noqa: BLE001 - recorded per request
                results_json[index] = {"error": str(exc)}
        elapsed = time.perf_counter() - started
    # Exiting the context ran shutdown(wait=True): the pool spilled into the
    # store (once — spilling here too would rewrite every entry twice) and
    # every done-callback has run, so the latency aggregates cover the batch.
    info = service.info()
    stats = service.stats() if args.stats else None

    failed = sum(1 for record in results_json if record and "error" in record)
    document = {
        "requests": len(entries),
        "failed": failed,
        "elapsed_seconds": elapsed,
        "requests_per_second": len(entries) / elapsed if elapsed > 0 else None,
        "service": info,
        "results": results_json,
    }
    text = json.dumps(document, indent=2, allow_nan=False)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    throughput = len(entries) / elapsed if elapsed > 0 else float("inf")
    print(
        f"# batch: {len(entries)} requests ({failed} failed, "
        f"{info['deduplicated']} deduplicated) over {len(relations)} relations "
        f"in {elapsed:.3f}s -> {throughput:.1f} req/s",
        file=sys.stderr,
    )
    if stats is not None:
        _print_service_stats(stats)
    return 1 if failed == len(entries) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-discover`` command; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.constant_only and args.variable_only:
        parser.error("--constant-only and --variable-only are mutually exclusive")
    if args.cache_gc is not None:
        return _run_cache_gc(args, parser)
    if args.cache_fsck:
        return _run_cache_fsck(args, parser)
    if args.csv is None:
        parser.error(
            "a CSV file is required (only --cache-gc/--cache-fsck run "
            "without one)"
        )
    if not args.csv.exists():
        parser.error(f"no such file: {args.csv}")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.batch is not None:
        return _run_batch(args, parser)

    relation = _load_relation(args, limit=args.limit_rows)
    store = _open_store(args.cache_dir)
    try:
        request = DiscoveryRequest(
            min_support=args.support,
            algorithm=args.algorithm,
            max_lhs_size=args.max_lhs,
            constant_only=args.constant_only,
            variable_only=args.variable_only,
            rank_by=args.rank_by,
            tableau=args.tableau,
        )
        profiler = Profiler(relation)
        loaded = 0
        if store is not None:
            loaded = _store_io(lambda: profiler.warm_from(store))
        result = profiler.run(request)
        # A failing store degrades to warnings: the computed rules are
        # always delivered (the store is an accelerator, never a gate).
        stored = 0
        if store is not None:
            stored = _store_io(lambda: profiler.dump_caches(store))
    except DiscoveryError as exc:
        parser.error(str(exc))

    if args.rank_by is None:
        # Deterministic presentation order (ranked output keeps rank order).
        result.cfds = sorted(result.cfds, key=str)
    cfds = result.cfds

    if args.as_json:
        document = result.to_json_dict()
        if args.tableau:
            document["tableaux"] = [str(t) for t in result.tableaux()]
        if store is not None:
            document["cache_store"] = {
                "dir": str(args.cache_dir),
                "entries_loaded": loaded,
                "entries_stored": stored,
            }
        # to_json_dict() is strictly JSON-native: no default= escape hatch.
        text = json.dumps(document, indent=2, allow_nan=False)
        n_reported = len(document["rules"])
        unit = "rules"
    elif args.tableau:
        lines: List[str] = [str(tableau) for tableau in result.tableaux()]
        text = "\n".join(lines)
        n_reported = len(lines)
        unit = "tableaux"
    else:
        lines = [str(cfd) for cfd in cfds]
        text = "\n".join(lines)
        n_reported = len(lines)
        unit = "rules"

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text + ("\n" if text else ""), encoding="utf-8")
    else:
        if text:
            print(text)
    print(
        f"# {result.summary()} -> {n_reported} {unit} reported",
        file=sys.stderr,
    )
    if store is not None:
        print(
            f"# cache-store {args.cache_dir}: loaded {loaded} entries, "
            f"stored {stored}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
