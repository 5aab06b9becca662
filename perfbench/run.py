"""The repository benchmark: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload profile-cold --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` measures the end-to-end metrics with the benchmark's tracing
off.  ``--trace 1`` runs the workload untraced, then again traced with the
same seed, prints the per-layer table and the tracing overhead (traced
minus untraced, per end-to-end metric), and reports the per-layer metrics.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import shutil
import signal
import subprocess
import sys
import threading
import uuid
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    REFERENCE_START_S,
    SRC,
    WORK,
    HostSpeed,
    body_digest,
    clock,
    digest_rules,
    dump_json,
    median,
    percentile,
    program_env,
    reference_start,
    reference_turn,
    require_program,
    rules_key,
    turn_unit,
    wait_recording_peak,
)
import inputs  # noqa: E402
from serving import Client, Fleet, metrics, pick_ports, tree_bytes, worker_urls  # noqa: E402

WORKLOADS = ("profile-cold", "serve-hot", "serve-churn")
#: Set-ups per untraced run; ``setup_s`` is their median.  A profile-cold
#: set-up is one interpreter's start, a third of a second, so it takes more
#: of them to read steady.
SETUP_REPEATS = 3
COLD_SETUP_REPEATS = 7
#: A run keeps starting whole cycles until both the time is up and it
#: holds this many discoveries, so p90 always has ten samples beyond it.
MIN_DISCOVERS = 100
#: Process timeout of one profile-cold interpreter past the run length.
COLD_GRACE = 120.0


# ---------------------------------------------------------------------- #
# end-to-end metrics
# ---------------------------------------------------------------------- #
def e2e_metrics(
    records: List[Dict], begin: float, end: float, setups: List[float], peak_kib: int,
    store_ratio: Optional[float], speed: HostSpeed, setup_scale: Optional[float] = None,
    completed: Optional[int] = None, uploads: Optional[List[Dict]] = None,
) -> Tuple[Dict[str, Dict], Dict[str, Dict]]:
    """The end-to-end metrics of one run, each with unit and sample count.

    ``records`` are the run's ops, each counted once in ``ok_ratio``; the
    timed phase ran from ``begin`` to ``end``.  ``speed`` holds the
    reference samples timed between the ops: every time is in reference
    seconds, each op's at the host speed around it, and keeps its value as
    timed as ``raw``.  ``setup_scale`` is the set-ups' factor, by default
    the whole run's (see README.md, Host speed).
    ``completed`` overrides the discoveries counted for throughput (the
    traced serve-hot run also sends half its requests past the router).
    ``uploads`` overrides the upload ops (profile-cold has none; its
    ``read_csv`` times stand in).
    """
    discovers = [r for r in records if r["kind"] == "discover"]
    ok = [r for r in discovers if r["ok"]]
    failed = sum(1 for r in records if not r["ok"])
    if completed is None:
        completed = len(ok)
    if uploads is None:
        uploads = [r for r in records if r["kind"] == "upload" and r["ok"]]
    busy = speed.seconds(begin, end)
    busy_raw = speed.seconds(begin, end, scaled=False)

    def latency(ops: List[Dict], q: float) -> Dict[str, object]:
        scaled = [r["latency"] * speed.scale(r["start"] + r["latency"] / 2) for r in ops]
        return dict(
            _m(percentile(scaled, q), "s", len(ops)),
            raw=percentile([r["latency"] for r in ops], q),
        )

    if setup_scale is None:
        setup_scale = speed.scale()
    setup = median(setups)
    metrics = {
        "setup_s": dict(_m(setup * setup_scale, "s", len(setups)), raw=setup),
        "discover_per_s": dict(
            _m(completed / busy if busy else 0.0, "ops/s", completed),
            raw=completed / busy_raw if busy_raw else 0.0,
        ),
        "discover_s.p50": latency(ok, 0.5),
        "discover_s.p90": latency(ok, 0.9),
        "upload_s.p50": latency(uploads, 0.5),
        "ok_ratio": _m(1.0 - failed / len(records) if records else 0.0, "ratio", len(records)),
        "peak_rss_mb": _m(peak_kib / 1024.0, "MiB", 1),
    }
    extra = {
        "failed_ratio": _m(failed / len(records) if records else 1.0, "ratio", len(records)),
        "host_scale": _m(speed.scale(), "x", len(speed.samples)),
        "setup_scale": _m(setup_scale, "x", len(setups)),
    }
    if store_ratio is not None:
        extra["store_bytes_per_input_byte"] = _m(store_ratio, "ratio", 1)
    return metrics, extra


def _m(value: float, unit: str, samples: int) -> Dict[str, object]:
    return {"value": value, "unit": unit, "samples": samples}


# ---------------------------------------------------------------------- #
# profile-cold
# ---------------------------------------------------------------------- #
def run_cold(w, seconds: float, min_discovers: int, traced: bool, run_dir: Path) -> Dict:
    plan = run_dir / "plan.json"
    out = run_dir / "cold-out.json"
    dump_json(
        plan,
        {
            "sets": [
                [
                    {
                        "path": str(w.relations[op.relation].path),
                        "algorithm": op.request.algorithm,
                        "support": op.request.support,
                    }
                    for op in ops
                ]
                for ops in w.sets
            ],
            "seconds": seconds,
            "min_ops": min_discovers,
            "trace": traced,
            "out": str(out),
        },
    )
    setups = []
    starts = []
    repeats = 1 if traced else COLD_SETUP_REPEATS
    peak = None
    for attempt in range(repeats):
        starts.append(reference_start())
        started = clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "cold.py"), str(plan)],
            env=program_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            setups.append(clock() - started)
            if line != "ready":
                raise RuntimeError(f"profile-cold interpreter failed to start: {line!r}")
            last = attempt == repeats - 1
            proc.stdin.write("go\n" if last else "stop\n")
            proc.stdin.close()
            peak = wait_recording_peak(proc, seconds + COLD_GRACE)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise RuntimeError(f"profile-cold interpreter exited with {proc.returncode}")
    document = json.loads(out.read_text())
    records = []
    for record in document["records"]:
        op = w.sets[record["set"]][record["position"]]
        expected = w.expected_digest(op)
        records.append(
            {
                "kind": "discover",
                "op": record["op"],
                "start": record["start"],
                "latency": record["latency"],
                "load": record["load"],
                "algorithm": op.request.algorithm,
                "ok": record["digest"] == expected,
                "rules": digest_rules(record["digest"]),
                "partitions": record["partitions"],
            }
        )
    # The relation load is the library's way in, as an upload is a server's.
    metrics, extra = e2e_metrics(
        records, document["begin"], document["end"], setups, peak or 0, None,
        HostSpeed(document["references"]), REFERENCE_START_S / median(starts),
        uploads=[{"start": r["start"], "latency": r["load"]} for r in records],
    )
    return {
        "metrics": metrics,
        "extra": extra,
        "records": records,
        "spans": document["spans"],
        "references": document["references"],
        "reference_starts": starts,
    }


# ---------------------------------------------------------------------- #
# serving workloads
# ---------------------------------------------------------------------- #
class OpSource:
    """Hands out the timed ops, whole cycles at a time (see MIN_DISCOVERS).

    Between two cycles every caller waits until all are idle; one of them
    then runs a reference turn (``common.reference_turn``), untimed, while
    no request is in flight, so the program's own load cannot slow it.
    ``references`` holds each turn as a ``common.HostSpeed`` sample,
    ``turns`` its units.
    """

    def __init__(self, w, seconds: float, min_discovers: int, callers: int):
        self._cycles = w.cycles()
        self._pending: deque = deque()
        self._lock = threading.Lock()
        self._turn_barrier = threading.Barrier(callers, action=self._turn)
        self._deadline = clock() + seconds
        self._min = min_discovers
        self._discovers = 0
        self._done = False
        self.exhausted = False
        self.references: List[List[float]] = []
        self.turns: List[List[float]] = []

    def _turn(self) -> None:
        """Between cycles, with every caller waiting: a reference turn, next cycle."""
        started = clock()
        units = reference_turn()
        ended = clock()
        self.turns.append(units)
        self.references.append([started, ended, turn_unit(units)])
        self._deadline += ended - started
        if clock() >= self._deadline and self._discovers >= self._min:
            self._done = True
            return
        try:
            cycle = next(self._cycles)
        except StopIteration:
            self.exhausted = self._done = True
            return
        self._discovers += sum(1 for op in cycle if op.kind == "discover")
        self._pending.extend(cycle)

    def next(self):
        while True:
            with self._lock:
                if self._pending:
                    return self._pending.popleft()
                if self._done:
                    return None
            try:
                self._turn_barrier.wait()
            except threading.BrokenBarrierError:  # another caller failed
                return None

    def abort(self) -> None:
        self._turn_barrier.abort()


class Session:
    """The load generator's view of one fleet: clients, fingerprints, records."""

    def __init__(self, w, fleet, traced: bool):
        self.w = w
        self.fleet = fleet
        self.traced = traced
        self.fingerprints: Dict[str, str] = {}
        self.csv = {name: rel.path.read_bytes() for name, rel in w.relations.items()}
        self.uploaded: set = set()
        self.lock = threading.Lock()
        self.ring = inputs.ring_of(fleet.workers)
        #: Cover digest per distinct rules part already parsed (rules_key).
        self.digests: Dict[bytes, str] = {}

    def send(self, client, op, via: str = "router", op_id: Optional[str] = None) -> Dict:
        """Send one op and check its answer; every failure is recorded, not raised."""
        headers = {}
        if op_id is not None:
            headers["traceparent"] = f"00-{op_id}-{uuid.uuid4().hex[:16]}-01"
        record = {"kind": op.kind, "via": via, "op": op_id, "cold": op.cold, "ok": False}
        if op.kind == "upload":
            headers["Content-Type"] = "text/csv"
            path, body = "/v1/relations", self.csv[op.relation]
        elif op.relation not in self.fingerprints:
            record.update(latency=0.0, start=clock(), end=clock(), error="relation never uploaded")
            return record
        else:
            headers["Content-Type"] = "application/json"
            document = dict(op.request.body(), relation=self.fingerprints[op.relation])
            path = "/v1/discover?stream=jsonl" if op.stream else "/v1/discover"
            body = json.dumps(document).encode()
        started = clock()
        try:
            status, _h, answer = client.request("POST", path, body, headers)
        except (OSError, http.client.HTTPException) as exc:  # transport failure, timeout
            client.close()
            record.update(latency=clock() - started, start=started, end=clock(), error=repr(exc))
            return record
        ended = clock()
        record.update(latency=ended - started, start=started, end=ended, status=status, bytes=len(answer))
        try:
            record.update(self._check(op, via, status, answer))
        except (ValueError, KeyError) as exc:  # a body that is not what it claims
            record["error"] = f"unreadable answer: {exc!r}"
        return record

    def _check(self, op, via: str, status: int, answer: bytes) -> Dict:
        if status != (201 if op.kind == "upload" else 200):
            return {"error": answer[:200].decode("utf-8", "replace")}
        if op.kind == "upload":
            fingerprint = json.loads(answer)["fingerprint"]
            with self.lock:
                self.fingerprints[op.relation] = fingerprint
                self.uploaded.add(op.relation)
            return {"ok": True}
        # Parsing every answer would load the machine the program runs on;
        # an answer whose rules part was parsed before has that cover.
        key = rules_key(answer, op.stream)
        digest = self.digests.get(key) if key is not None else None
        if digest is None:
            digest = body_digest(answer, op.stream)
            if key is not None:
                self.digests[key] = digest
        expected = self.w.expected_digest(op)
        out = {"rules": digest_rules(digest), "algorithm": op.request.algorithm}
        out["ok"] = digest == expected
        if not out["ok"]:
            out["error"] = f"cover {digest} != expected {expected}"
        return out

    def owner(self, op) -> str:
        return self.ring.assign(self.fingerprints[op.relation])


def _setup(session, clients) -> List[Dict]:
    """Upload the set-up relations, then answer every warm-up op once.

    With two connections, one warms the wide relation, whose two DFD walks
    (full and prefix) are the longest set-up runs, while the other warms
    the rest.
    """
    records: List[Dict] = []
    uploads = deque(inputs.Op("upload", name) for name in session.w.setup_relations)

    def upload(client) -> None:
        while True:
            with session.lock:
                if not uploads:
                    return
                op = uploads.popleft()
            records.append(session.send(client, op))

    _parallel(upload, clients)
    queues = [[] for _ in clients]
    for op in session.w.warmup:
        queues[0 if op.relation == "wide" or len(clients) == 1 else 1].append(op)

    def warm(client) -> None:
        for op in queues[clients.index(client)]:
            records.append(session.send(client, op))

    _parallel(warm, clients)
    return records


def _parallel(fn, clients) -> None:
    threads = [threading.Thread(target=fn, args=(client,)) for client in clients[1:]]
    for thread in threads:
        thread.start()
    try:
        fn(clients[0])
    finally:
        for thread in threads:
            thread.join()


def run_serving(w, seconds: float, min_discovers: int, traced: bool, run_dir: Path) -> Dict:
    connections = 2 if w.name == "serve-hot" else 1
    pool_sessions = inputs.CHURN_POOL_SESSIONS if w.name == "serve-churn" else None
    ports = pick_ports(w.name)
    repeats = 1 if traced else SETUP_REPEATS
    setups: List[float] = []
    launches: List[float] = []
    setup_failures = []
    fleet = session = None
    try:
        for attempt in range(repeats):
            store = run_dir / f"store{attempt}"
            shutil.rmtree(store, ignore_errors=True)
            fleet = Fleet(
                ports, store, run_dir / f"logs{attempt}",
                pool_sessions=pool_sessions, traced=traced,
            )
            started = clock()
            fleet.start()
            launched = clock()
            session = Session(w, fleet, traced)
            clients = [Client(fleet.router_url) for _ in range(connections)]
            warm = _setup(session, clients)
            setups.append(clock() - started)
            launches.append(launched - started)
            setup_failures += [r for r in warm if not r["ok"]]
            if attempt < repeats - 1:
                for client in clients:
                    client.close()
                fleet.kill()
                shutil.rmtree(store, ignore_errors=True)
        problems: List[str] = []
        before = _scrape(fleet, problems)
        records, begin, end, source = _timed(session, clients, seconds, min_discovers)
        after = _scrape(fleet, problems)
        for client in clients:
            client.close()
        peaks, codes = fleet.stop()
    except BaseException:
        if fleet is not None:
            fleet.kill()
        raise
    # A fleet that failed over, or replayed an upload onto a worker, still
    # answers correctly, but no longer runs the workload being measured.
    for key in ("repro_fleet_failovers_total", "repro_fleet_reuploads_total"):
        if after[fleet.router_url].get(key, 0.0):
            problems.append(f"{key} is {after[fleet.router_url][key]:g}, not 0")
    problems += [f"{role} exit code {code}, not the drain's 0" for role, code in codes.items() if code]
    if source.exhausted:
        problems.append("ran out of fresh relations before the time was up")
    store_bytes = tree_bytes(fleet.cache_dir)
    # Every distinct relation uploaded, set-up ones included: the store
    # holds their sessions.  Re-uploads of one CSV add no input.
    input_bytes = sum(len(session.csv[name]) for name in session.uploaded)
    routed = [r for r in records if r["via"] == "router"]
    metrics_, extra = e2e_metrics(
        routed, begin, end, setups, sum(p or 0 for p in peaks.values()),
        store_bytes / input_bytes if input_bytes else None,
        HostSpeed(source.references),
        completed=sum(1 for r in records if r["kind"] == "discover" and r["ok"]),
    )
    spans = []
    for path in fleet.spans_files:
        spans.extend(json.loads(path.read_text())["spans"])
    counters = {
        key: sum(after[url].get(key, 0.0) - before[url].get(key, 0.0) for url in after)
        for key in set().union(*after.values())
    }
    extra["launch_s"] = _m(median(launches) * extra["setup_scale"]["value"], "s", len(launches))
    return {
        "metrics": metrics_,
        "extra": extra,
        "records": records,
        "setup_failures": setup_failures,
        "spans": spans,
        "counters": counters,
        "peaks": peaks,
        "problems": problems,
        "references": source.references,
        "reference_turns": source.turns,
    }


def _scrape(fleet, problems: List[str]) -> Dict[str, Dict[str, float]]:
    """``/metrics`` of the router and every worker; an unreadable one is a problem."""
    pages = {}
    for url in [fleet.router_url] + fleet.workers:
        try:
            pages[url] = metrics(url)
        except (OSError, RuntimeError, http.client.HTTPException) as exc:
            problems.append(f"{url}/metrics unreadable: {exc!r}")
            pages[url] = {}
    return pages


def _timed(session, clients, seconds: float, min_discovers: int):
    source = OpSource(session.w, seconds, min_discovers, len(clients))
    records: List[Dict] = []
    errors: List[BaseException] = []
    workers = {url: [Client(url) for _ in clients] for url in session.fleet.workers}

    def loop(index: int) -> None:
        try:
            _loop(index)
        except BaseException as exc:  # re-raised below, once every caller stopped
            errors.append(exc)
            source.abort()

    def _loop(index: int) -> None:
        client = clients[index]
        pairs = 0
        while True:
            op = source.next()
            if op is None:
                return
            if not session.traced:
                records.append(session.send(client, op))
                continue
            op_id = uuid.uuid4().hex
            if session.w.name != "serve-hot" or (op.kind == "discover" and op.relation not in session.fingerprints):
                records.append(session.send(client, op, "router", op_id))
                continue
            # Alternate each request between the router and its owning
            # worker; the pair's difference is the router's own time.
            direct = workers[session.owner(op)][index]
            pair_id = uuid.uuid4().hex
            order = [("router", client), ("direct", direct)]
            if pairs % 2:
                order.reverse()
            pairs += 1
            for via, target in order:
                record = session.send(target, op, via, uuid.uuid4().hex if via == "direct" else op_id)
                record["pair"] = pair_id
                records.append(record)

    started = clock()
    threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = clock()
    for pool in workers.values():
        for client in pool:
            client.close()
    if errors:
        raise errors[0]
    return records, started, ended, source


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
#: name -> unit; the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER_UNITS = {
    "relational.load_s": "s",
    "itemsets.free_closed_s": "s",
    "fd.diffsets_s": "s",
    "core.ctane_s": "s",
    "core.fastcfd_s": "s",
    "core.cfdminer_s": "s",
    "core.dfd_s": "s",
    "core.rules": "count",
    "core.dfd_partitions_computed": "count",
    "api.memo_hit_s": "s",
    "api.encode_s": "s",
    "api.cache_hit_ratio": "ratio",
    "service.self_s": "s",
    "service.dedup_ratio": "ratio",
    "pool.session_hit_s": "s",
    "pool.session_miss_s": "s",
    "pool.hit_ratio": "ratio",
    "pool.spilled_entries_per_op": "count",
    "pool.warm_loaded_entries_per_op": "count",
    "store.put_s": "s",
    "store.get_s": "s",
    "store.put_bytes_per_op": "bytes",
    "store.checkpoint_s": "s",
    "store.checkpoint_useful_ratio": "ratio",
    "store.bytes_per_input_byte": "ratio",
    "http.self_s": "s",
    "http.response_bytes": "bytes",
    "fleet.self_s": "s",
    "fleet.upload_self_s": "s",
    "fleet.forwards_per_request": "count",
}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fold(w, run: Dict) -> Dict:
    """Per-layer table and per-layer metrics of one traced run."""
    from spans import layer_table, self_times

    records = run["records"]
    if w.name == "profile-cold":
        spans = run["spans"]
        roots = {"op"}
    else:
        timed = {r["op"]: r for r in records}
        spans = []
        for record in records:
            name = "fleet.request" if record["via"] == "router" else "http.request"
            spans.append(
                {"name": name, "start": record["start"], "end": record["end"],
                 "id": "c" + record["op"], "parent": None, "op": record["op"], "attrs": {}}
            )
        for span in run["spans"]:
            if span["op"] in timed:
                if span["parent"] is None:
                    span = dict(span, parent="c" + span["op"])
                spans.append(span)
        roots = {"fleet.request", "http.request"}
    table = layer_table(spans, roots, booked=w.name != "profile-cold")
    timed_spans = self_times(spans)
    selfs: Dict[str, List[float]] = {}
    for span in timed_spans:
        selfs.setdefault(span["name"], []).append(span["self"])
    engine_parents = {s["parent"] for s in timed_spans if s["name"].startswith("core.")}

    def med(name: str) -> float:
        return median(selfs[name]) if selfs.get(name) else 0.0

    def attr_sum(names, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in timed_spans if s["name"] in names)

    counters = run.get("counters", {})
    discovers = [r for r in records if r["kind"] == "discover" and r["ok"]]
    ops = len(records)
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    values.update(
        {
            "relational.load_s": med("relational.load"),
            "itemsets.free_closed_s": med("itemsets.free_closed"),
            "fd.diffsets_s": med("fd.diffsets"),
            "core.ctane_s": med("core.ctane"),
            "core.fastcfd_s": med("core.fastcfd"),
            "core.cfdminer_s": med("core.cfdminer"),
            "core.dfd_s": med("core.dfd"),
            "core.rules": _mean([r["rules"] for r in discovers]),
            "core.dfd_partitions_computed": _mean(
                [r["partitions"] for r in discovers if r.get("partitions") is not None]
            ),
            "api.memo_hit_s": median(
                [s["self"] for s in timed_spans
                 if s["name"] == "api.run" and s["id"] not in engine_parents]
            ) if any(s["name"] == "api.run" for s in timed_spans) else 0.0,
            "api.encode_s": med("api.encode"),
            "api.cache_hit_ratio": _ratio(
                attr_sum({"api.run"}, "cache_hits"), attr_sum({"api.run"}, "cache_lookups")
            ),
            "service.self_s": med("service.submit"),
            "service.dedup_ratio": _ratio(
                counters.get("repro_service_deduplicated", 0),
                counters.get("repro_service_requests", 0),
            ),
            "pool.session_hit_s": med("pool.session_hit"),
            "pool.session_miss_s": med("pool.session_miss"),
            "pool.hit_ratio": _ratio(
                counters.get("repro_pool_hits_total", 0),
                counters.get("repro_pool_hits_total", 0) + counters.get("repro_pool_misses_total", 0),
            ),
            "pool.spilled_entries_per_op": _ratio(
                counters.get("repro_pool_spilled_entries_total", 0), ops
            ),
            "pool.warm_loaded_entries_per_op": _ratio(
                counters.get("repro_pool_warm_loaded_entries_total", 0), ops
            ),
            "store.put_s": med("store.put"),
            "store.get_s": med("store.get"),
            "store.put_bytes_per_op": _ratio(
                attr_sum({"store.put", "store.checkpoint"}, "bytes"), ops
            ),
            "store.checkpoint_s": _ratio(
                sum(selfs.get("store.checkpoint", [])),
                sum(1 for r in discovers if r.get("cold") and r.get("algorithm") == "ctane"),
            ),
            "store.checkpoint_useful_ratio": _ratio(
                counters.get("repro_resume_levels_skipped_total", 0),
                len(selfs.get("store.checkpoint", [])),
            ),
            "store.bytes_per_input_byte": run["extra"].get(
                "store_bytes_per_input_byte", {}
            ).get("value", 0.0),
            "fleet.forwards_per_request": _ratio(
                counters.get("repro_fleet_forwards_total", 0),
                counters.get("repro_fleet_requests_total", 0),
            ),
        }
    )
    if w.name != "profile-cold":
        values["http.response_bytes"] = _mean([r["bytes"] for r in discovers])
        by_op: Dict[str, float] = {}
        for span in timed_spans:
            if span["name"] in ("http.request", "http.handler"):
                by_op[span["op"]] = by_op.get(span["op"], 0.0) + span["self"]
        direct = [by_op[r["op"]] for r in discovers if r["via"] == "direct"]
        values["http.self_s"] = median(direct) if direct else 0.0
        pairs = _pair_differences(records)
        values["fleet.self_s"] = median(pairs["discover"]) if pairs["discover"] else 0.0
        values["fleet.upload_self_s"] = median(pairs["upload"]) if pairs["upload"] else 0.0
        table["router_overhead"] = {
            kind: {
                "pairs": len(diffs),
                "median_s": median(diffs) if diffs else None,
                "q1_s": percentile(diffs, 0.25) if diffs else None,
                "q3_s": percentile(diffs, 0.75) if diffs else None,
                "direct_median_s": median(pairs[kind + "_direct"]) if pairs[kind + "_direct"] else None,
            }
            for kind, diffs in (("discover", pairs["discover"]), ("upload", pairs["upload"]))
        }
        table["sanity"] = {
            "failovers": counters.get("repro_fleet_failovers_total", 0),
            "reuploads": counters.get("repro_fleet_reuploads_total", 0),
        }
    # The span table stays as timed; the per-layer times, like the
    # end-to-end ones, are reference seconds.
    scale = run["extra"]["host_scale"]["value"]
    values = {
        name: value * scale if PER_LAYER_UNITS[name] == "s" else value
        for name, value in values.items()
    }
    return {"table": table, "values": values}


def _pair_differences(records: List[Dict]) -> Dict[str, List[float]]:
    """Router minus direct latency of each request sent both ways."""
    pairs: Dict[str, Dict[str, Dict]] = {}
    for record in records:
        if "pair" in record and record["ok"]:
            pairs.setdefault(record["pair"], {})[record["via"]] = record
    out: Dict[str, List[float]] = {
        "discover": [], "upload": [], "discover_direct": [], "upload_direct": []
    }
    for pair in pairs.values():
        if "router" in pair and "direct" in pair:
            kind = pair["router"]["kind"]
            out[kind].append(pair["router"]["latency"] - pair["direct"]["latency"])
            out[kind + "_direct"].append(pair["direct"]["latency"])
    return out


# ---------------------------------------------------------------------- #
# output
# ---------------------------------------------------------------------- #
def print_e2e(title: str, metrics: Dict, extra: Dict) -> None:
    print(f"== {title}: times in reference seconds (README.md, Host speed)")
    print(f"   {'metric':<30}{'value':>14}  {'unit':<7}{'samples':>8}{'as timed':>14}")
    for name, m in list(metrics.items()) + list(extra.items()):
        raw = f"{m['raw']:>14.6g}" if "raw" in m else ""
        print(f"   {name:<30}{m['value']:>14.6g}  {m['unit']:<7}{m['samples']:>8}{raw}")


def print_layers(title: str, folded: Dict, overhead: Dict) -> None:
    table = folded["table"]
    print(f"== {title}: per-layer self time over {table['op_time_s']:.3f}s of timed ops, as timed")
    print(f"   {'span':<24}{'calls':>7}{'median self s':>15}{'total self s':>14}{'share':>8}")
    for name, row in table["layers"].items():
        print(
            f"   {name:<24}{row['calls']:>7}{row['median_self_s']:>15.6f}"
            f"{row['total_self_s']:>14.4f}{row['share']:>8.1%}"
        )
    print(
        f"   {'(no layer)':<24}{'':>7}{'':>15}{table['unaccounted_s']:>14.4f}"
        f"{table['unaccounted_share']:>8.1%}"
    )
    for kind, row in table.get("router_overhead", {}).items():
        if row["pairs"]:
            print(
                f"   router overhead ({kind}): median {row['median_s'] * 1e3:.3f}ms "
                f"[q1 {row['q1_s'] * 1e3:.3f}, q3 {row['q3_s'] * 1e3:.3f}] over "
                f"{row['pairs']} pairs; direct median {row['direct_median_s'] * 1e3:.3f}ms"
            )
    if "sanity" in table:
        print(f"   fleet sanity: {table['sanity']}")
    print(f"== {title}: per-layer metrics, times in reference seconds")
    for name, value in folded["values"].items():
        print(f"   {name:<34}{value:>14.6g}  {PER_LAYER_UNITS[name]}")
    print(f"== {title}: tracing overhead (traced minus untraced)")
    for name, (traced, untraced) in overhead.items():
        share = (traced - untraced) / untraced if untraced else float("nan")
        print(f"   {name:<30}{traced - untraced:>+14.6g}  ({share:+.1%})")


def run_workload(name: str, seed: int, seconds: float, trace: bool, min_discovers: int) -> Dict:
    workers = worker_urls(pick_ports(name)) if name != "profile-cold" else ()
    w = inputs.build(name, seed, workers)
    computed = inputs.load_expected(w)
    if computed:
        print(f"-- {name}: computed {len(computed)} expected covers for seed {seed}")
    run_dir = WORK / "runs" / f"{name}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = run_cold if name == "profile-cold" else run_serving
    untraced = runner(w, seconds, min_discovers, False, run_dir / "untraced")
    result = {"workload": name, "seed": seed, "untraced": untraced}
    print_e2e(f"{name} seed {seed} (untraced)", untraced["metrics"], untraced["extra"])
    _report_failures(name, untraced)
    final = untraced
    if trace:
        traced = runner(w, seconds, min_discovers, True, run_dir / "traced")
        _report_failures(name, traced)
        folded = fold(w, traced)
        overhead = {
            key: (traced["metrics"][key]["value"], untraced["metrics"][key]["value"])
            for key in untraced["metrics"]
        }
        print_layers(f"{name} seed {seed} (traced)", folded, overhead)
        result.update(traced=traced, folded=folded, overhead=overhead)
        final = traced
    out = WORK / "results" / f"{name}-{seed}-trace{int(trace)}.json"
    dump_json(out, result)
    print(f"-- {name}: results written to {out.relative_to(WORK.parent)}")
    records = final["records"]
    failed = sum(1 for r in records if not r["ok"])
    if trace:
        metrics = {
            key: {"value": value, "unit": PER_LAYER_UNITS[key]}
            for key, value in result["folded"]["values"].items()
        }
    else:
        metrics = {
            key: {"value": m["value"], "unit": m["unit"]}
            for key, m in untraced["metrics"].items()
        }
    return {
        "correct": run_correct(untraced) and run_correct(final),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def run_correct(run: Dict) -> bool:
    """No failed op, set-up ones included, and nothing wrong with the fleet."""
    return (
        all(r["ok"] for r in run["records"])
        and not run.get("setup_failures")
        and not run.get("problems")
    )


def _report_failures(name: str, run: Dict) -> None:
    bad = [r for r in run["records"] if not r["ok"]] + run.get("setup_failures", [])
    for record in bad[:5]:
        print(f"!! {name}: failed {record['kind']}: {record.get('error')}")
    if len(bad) > 5:
        print(f"!! {name}: {len(bad) - 5} more failures")
    for problem in run.get("problems", []):
        print(f"!! {name}: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--min-discovers", type=int, default=MIN_DISCOVERS,
        help="discoveries a run holds at least (lowered only by the benchmark's tests)",
    )
    args = parser.parse_args(argv)
    require_program()
    # A terminated run unwinds like a failed one: its servers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        summaries[name] = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.min_discovers
        )
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
    else:
        for name in names:
            print(json.dumps(dict(summaries[name], workload=name)))
        print(
            json.dumps(
                {
                    "correct": all(s["correct"] for s in summaries.values()),
                    "attempted": sum(s["attempted"] for s in summaries.values()),
                    "failed": sum(s["failed"] for s in summaries.values()),
                    "metrics": {
                        f"{name}/{key}": value
                        for name, s in summaries.items()
                        for key, value in s["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
