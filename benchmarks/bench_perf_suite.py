"""The tracked perf-benchmark suite → ``BENCH_perf.json`` at the repo root.

Nine sections, re-measured on every run so the numbers never rot (they
keep the numbers ROADMAP.md and the recorded runs cite, so there is no
section 2):

1. **Partition microbenchmarks** — construction of the single-attribute
   partitions and a full product chain across the schema, timed for the
   label-array substrate (:mod:`repro.relational.partition`) *and* for the
   original tuple-of-tuples implementation
   (:mod:`repro.relational._reference`).  The reported speedup is the
   substrate's improvement over the reference, i.e. over the pre-change
   baseline.
3. **End-to-end discovery** — CFDMiner, CTANE and FastCFD on generated Tax
   data across a support sweep, the trajectory future PRs compare against.
4. **Serving throughput** — a mixed batch of requests (two algorithms × a
   support sweep) pushed through :class:`repro.serve.DiscoveryService` with
   a pooled session, reported as requests/sec against the same batch run
   sequentially one-shot (no session, no pool) — the serving layer's
   cache-reuse win.
5. **Persistence** — the CTANE end-to-end configuration served cold versus
   warm-started from a :class:`repro.serve.CacheStore` dumped by a previous
   session (fresh ``Profiler`` + store load + run, i.e. exactly what a
   restarted worker pays), plus the store's entry count and on-disk size;
   the cover must round-trip byte-identically.
6. **HTTP serving** — the ``repro-serve`` stack on a real ephemeral-port
   socket: steady-state requests/sec through upload → discover, and the
   first-request latency of a cold server versus one restarted over a
   ``--cache-dir`` store seeded by a previous server's graceful drain.
7. **Fleet serving** — two store-sharing workers behind the ``repro-fleet``
   router: the same warm request timed direct against the ring owner and
   through the router (the forwarding overhead, asserted ≤ 30% in CI), and
   the recovery latency of killing the owner mid-traffic (mark-dead → ring
   successor → cached-upload replay → warm-start), which must reproduce the
   owner's cover byte-identically.
8. **Fault recovery** — time-to-result after a mid-lattice crash:
   checkpointed resume (fresh ``Profiler`` over the store holding the
   crashed run's last durable level frontier) against a cold restart from
   scratch — both sides store-attached, so both pay the per-level
   checkpoint persistence a production worker pays — byte-identical covers
   required; plus the fault-free cost of the injection hooks themselves —
   an armed :class:`repro.serve.FaultPlan` whose rules match no injection
   point versus no plan at all, asserted ≤ 2% overhead in CI.
9. **Wide relations** — the schema-width axis the walk engine opened: on a
   seeded :mod:`repro.datagen.wide` relation at CTANE-feasible arity every
   wide-capable engine (CTANE, FastCFD, ``dfd``) is timed and their covers
   asserted identical (the oracle criterion, gated in CI); at 120 columns —
   far beyond CTANE's declared ``max_auto_arity`` of 17, so its levelwise
   sweep is recorded as not-attempted (``None``) rather than timed — the
   random-walk ``dfd`` engine completes in seconds, with its walk counters
   (partitions computed, restarts) recorded alongside the runtime.
10. **Tracing overhead** — the cost of the :mod:`repro.obs` instrumentation
    when it records nothing: a fully-disabled tracer against an enabled
    tracer at ``sample_rate=0`` (every ``start_span`` site pays the check
    and takes the shared no-op fast path), interleaved back-to-back pairs
    through the most span-dense path (CTANE with its per-level spans),
    overhead taken as the median per-pair ratio and asserted ≤ 2% in CI.

Run ``python benchmarks/bench_perf_suite.py`` for the tracked numbers or
``--smoke`` for the tiny CI configuration (same shape, toy sizes).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.perf_common import (
    DEFAULT_OUTPUT,
    machine_info,
    render_rows,
    tax_relation,
    time_best,
    write_report,
)
from repro.api import DiscoveryRequest, execute
from repro.core.cfdminer import CFDMiner
from repro.core.ctane import CTane
from repro.core.fastcfd import FastCFD
from repro.relational._reference import reference_attribute_partition
from repro.relational.partition import attribute_partition
from repro.serve import DiscoveryService, SessionPool


# ---------------------------------------------------------------------- #
# section 1: partition microbenchmarks
# ---------------------------------------------------------------------- #
def bench_partitions(db_size: int, arity: int, repeats: int) -> dict:
    relation = tax_relation(db_size, arity=arity, seed=7)
    matrix = relation.encoded_matrix()

    def construct_labels():
        return [attribute_partition(matrix, [a]) for a in range(arity)]

    def construct_reference():
        return [reference_attribute_partition(matrix, [a]) for a in range(arity)]

    label_singles = construct_labels()
    reference_singles = construct_reference()

    def chain(singles):
        def run():
            partition = singles[0]
            for other in singles[1:]:
                partition = partition.product(other)
            return partition

        return run

    construct = {
        "label_array_s": time_best(construct_labels, repeats),
        "reference_s": time_best(construct_reference, repeats),
    }
    construct["speedup"] = construct["reference_s"] / construct["label_array_s"]
    product = {
        "label_array_s": time_best(chain(label_singles), repeats),
        "reference_s": time_best(chain(reference_singles), repeats),
    }
    product["speedup"] = product["reference_s"] / product["label_array_s"]
    return {
        "rows": db_size,
        "arity": arity,
        "partition_construct": construct,
        "partition_product_chain": product,
    }


# ---------------------------------------------------------------------- #
# section 3: end-to-end discovery across supports
# ---------------------------------------------------------------------- #
def bench_end_to_end(db_size: int, supports: list, repeats: int) -> list:
    relation = tax_relation(db_size, seed=3)
    engines = {
        "cfdminer": lambda k: CFDMiner(relation, k).discover(),
        "ctane": lambda k: CTane(relation, k).discover(),
        "fastcfd": lambda k: FastCFD(relation, k).discover(),
    }
    rows = []
    for support in supports:
        for name, run in engines.items():
            seconds = time_best(lambda: run(support), repeats)
            rows.append(
                {
                    "algorithm": name,
                    "db_size": db_size,
                    "support": support,
                    "seconds": seconds,
                    "n_cfds": len(run(support)),
                }
            )
    return rows


# ---------------------------------------------------------------------- #
# section 4: serving throughput through the session pool
# ---------------------------------------------------------------------- #
def bench_serving(db_size: int, supports: list, workers: int, repeats: int) -> dict:
    relation = tax_relation(db_size, seed=3)
    requests = [
        DiscoveryRequest(min_support=support, algorithm=algorithm)
        for support in supports
        for algorithm in ("cfdminer", "fastcfd")
    ]

    def concurrent():
        with DiscoveryService(
            pool=SessionPool(max_sessions=4), max_workers=workers
        ) as service:
            service.run_batch([(relation, request) for request in requests])

    def sequential():
        for request in requests:
            execute(relation, request)

    concurrent_s = time_best(concurrent, repeats)
    sequential_s = time_best(sequential, repeats)
    return {
        "db_size": db_size,
        "workers": workers,
        "n_requests": len(requests),
        "concurrent_s": concurrent_s,
        "sequential_oneshot_s": sequential_s,
        "requests_per_second": round(len(requests) / concurrent_s, 2),
        "speedup": sequential_s / concurrent_s,
    }


# ---------------------------------------------------------------------- #
# section 5: persistence — cold vs store-loaded warm start
# ---------------------------------------------------------------------- #
def bench_persistence(db_size: int, support: int, repeats: int) -> dict:
    """Cold vs warm-start wall time of the CTANE end-to-end configuration.

    The warm timing includes *everything* a restarted worker pays: creating
    a fresh ``Profiler``, loading the store entries, and serving the run —
    against a cold run that builds every structure from scratch.  The cover
    must round-trip byte-identically through the store.
    """
    import json as json_mod
    import tempfile

    from repro.api import Profiler
    from repro.serve import CacheStore

    relation = tax_relation(db_size, seed=3)
    relation.encoded_matrix()
    relation.fingerprint()
    request = DiscoveryRequest(min_support=support, algorithm="ctane")

    def cold():
        return Profiler(relation).run(request)

    cold_s = time_best(cold, repeats)
    cold_result = cold()

    with tempfile.TemporaryDirectory() as tmp:
        store = CacheStore(tmp)
        seeder = Profiler(relation)
        seeder.run(request)
        entries = seeder.dump_caches(store)
        store_bytes = store.size_bytes()

        warm_results = []

        def warm():
            profiler = Profiler(relation)
            profiler.warm_from(store)
            warm_results.append(profiler.run(request))

        warm_s = time_best(warm, repeats)

    cold_rules = json_mod.dumps(cold_result.to_json_dict()["rules"])
    warm_rules = json_mod.dumps(warm_results[-1].to_json_dict()["rules"])
    return {
        "db_size": db_size,
        "support": support,
        "algorithm": "ctane",
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
        "store_entries": entries,
        "store_bytes": store_bytes,
        "byte_identical_output": cold_rules == warm_rules,
    }


# ---------------------------------------------------------------------- #
# section 6: HTTP serving — requests/sec over a real socket, warm vs cold
# ---------------------------------------------------------------------- #
def bench_http_serving(
    db_size: int, support: int, n_requests: int, workers: int = 4
) -> dict:
    """Throughput and first-request latency of the ``repro-serve`` stack.

    Three servers on real ephemeral-port sockets, talked to via
    ``http.client`` (upload CSV → discover):

    * **cold** — no store: the first ``POST /v1/discover`` pays the full
      engine build, then ``n_requests`` identical requests measure the
      steady-state requests/sec of the HTTP + session-pool path;
    * **seed** — a store-backed server serves one discovery and drains,
      spilling its warmed session into the cache store (the production
      shutdown path);
    * **warm** — a *restarted* store-backed server: its first request
      warm-starts from the store, which must beat the cold first request.
    """
    import http.client
    import json as json_mod
    import tempfile
    from pathlib import Path as PathLib

    from repro.relational.io import write_csv
    from repro.serve import CacheStore, DiscoveryService, SessionPool
    from repro.serve.http import ServerConfig, ServerThread

    relation = tax_relation(db_size, seed=3)
    discover_body = json_mod.dumps(
        {"relation": "tax", "support": support, "algorithm": "ctane"}
    ).encode()

    def exchange(connection, method, path, body=None, content_type=None):
        headers = {"Content-Type": content_type} if content_type else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        payload = response.read()
        assert response.status in (200, 201), (response.status, payload[:200])
        return payload

    def boot(store_dir=None):
        store = CacheStore(store_dir) if store_dir is not None else None
        service = DiscoveryService(
            pool=SessionPool(store=store), max_workers=workers
        )
        return ServerThread(service, ServerConfig(port=0, request_timeout=300))

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = PathLib(tmp) / "tax.csv"
        write_csv(relation, csv_path)
        csv_bytes = csv_path.read_bytes()
        store_dir = PathLib(tmp) / "store"

        with boot() as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=300
            )
            exchange(
                connection, "POST", "/v1/relations?name=tax",
                body=csv_bytes, content_type="text/csv",
            )
            started = time.perf_counter()
            exchange(
                connection, "POST", "/v1/discover",
                body=discover_body, content_type="application/json",
            )
            cold_first_s = time.perf_counter() - started
            started = time.perf_counter()
            for _ in range(n_requests):
                exchange(
                    connection, "POST", "/v1/discover",
                    body=discover_body, content_type="application/json",
                )
            steady_s = time.perf_counter() - started
            connection.close()

        # Seed the store through the production path: serve once, drain
        # (the graceful shutdown spills the warmed session to the store).
        with boot(store_dir) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=300
            )
            exchange(
                connection, "POST", "/v1/relations?name=tax",
                body=csv_bytes, content_type="text/csv",
            )
            exchange(
                connection, "POST", "/v1/discover",
                body=discover_body, content_type="application/json",
            )
            connection.close()
        store_bytes = CacheStore(store_dir).size_bytes()

        # The restarted worker: first request warm-starts from the store.
        with boot(store_dir) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=300
            )
            exchange(
                connection, "POST", "/v1/relations?name=tax",
                body=csv_bytes, content_type="text/csv",
            )
            started = time.perf_counter()
            exchange(
                connection, "POST", "/v1/discover",
                body=discover_body, content_type="application/json",
            )
            warm_first_s = time.perf_counter() - started
            connection.close()

    return {
        "db_size": db_size,
        "support": support,
        "algorithm": "ctane",
        "workers": workers,
        "n_requests": n_requests,
        "requests_per_second": round(n_requests / steady_s, 2),
        "steady_state_s": steady_s,
        "first_request_cold_s": cold_first_s,
        "first_request_warm_s": warm_first_s,
        "warm_speedup": cold_first_s / warm_first_s,
        "store_bytes": store_bytes,
    }


# ---------------------------------------------------------------------- #
# section 7: fleet serving — router overhead and failover recovery
# ---------------------------------------------------------------------- #
def bench_fleet_serving(
    db_size: int, support: int, n_requests: int, workers: int = 2
) -> dict:
    """The cost of the ``repro-fleet`` hop and the price of a failover.

    Two store-sharing workers behind one router, all on real sockets.  The
    same warm discover request is timed ``n_requests`` times straight
    against the ring owner and then through the router — the throughput
    delta is the router's forwarding overhead (CI asserts it stays under
    30%).  Then the owner is stopped mid-traffic and the next request
    through the router times the full failover: mark-dead, retry on the
    ring successor, replay the cached upload, warm-start from the shared
    store — and its rules payload must be byte-identical to the owner's.
    """
    import http.client
    import json as json_mod
    import tempfile
    from pathlib import Path as PathLib

    from repro.relational.io import write_csv
    from repro.serve import CacheStore, DiscoveryService, SessionPool
    from repro.serve.fleet import RouterConfig, RouterThread
    from repro.serve.http import ServerConfig, ServerThread

    relation = tax_relation(db_size, seed=3)
    discover_body = json_mod.dumps(
        {"relation": "tax", "support": support, "algorithm": "ctane"}
    ).encode()

    def exchange(connection, method, path, body=None, content_type=None):
        headers = {"Content-Type": content_type} if content_type else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        payload = response.read()
        assert response.status in (200, 201), (response.status, payload[:200])
        return payload

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = PathLib(tmp) / "tax.csv"
        write_csv(relation, csv_path)
        csv_bytes = csv_path.read_bytes()
        store_dir = PathLib(tmp) / "store"

        fleet = [
            ServerThread(
                DiscoveryService(
                    pool=SessionPool(store=CacheStore(store_dir)), max_workers=4
                ),
                ServerConfig(port=0, request_timeout=300),
            ).start()
            for _ in range(workers)
        ]
        router = RouterThread(RouterConfig(
            port=0,
            workers=[worker.address for worker in fleet],
            health_interval=0.5,
            request_timeout=300.0,
        )).start()
        try:
            via_router = http.client.HTTPConnection(
                router.host, router.port, timeout=300
            )
            exchange(
                via_router, "POST", "/v1/relations?name=tax",
                body=csv_bytes, content_type="text/csv",
            )
            baseline = json_mod.loads(exchange(
                via_router, "POST", "/v1/discover",
                body=discover_body, content_type="application/json",
            ))
            owner_url = router.router.ring.assign(
                router.router._resolve_key("tax")
            )
            owner = next(w for w in fleet if w.address == owner_url)
            direct = http.client.HTTPConnection(
                owner.host, owner.port, timeout=300
            )
            # Warm both paths past connection setup and first-hit effects.
            for _ in range(3):
                exchange(direct, "POST", "/v1/discover",
                         body=discover_body, content_type="application/json")
                exchange(via_router, "POST", "/v1/discover",
                         body=discover_body, content_type="application/json")

            started = time.perf_counter()
            for _ in range(n_requests):
                exchange(direct, "POST", "/v1/discover",
                         body=discover_body, content_type="application/json")
            direct_s = time.perf_counter() - started
            direct.close()

            started = time.perf_counter()
            for _ in range(n_requests):
                exchange(via_router, "POST", "/v1/discover",
                         body=discover_body, content_type="application/json")
            router_s = time.perf_counter() - started

            # Failover: stop the owner (graceful — it spills to the shared
            # store) and time the next request through the router.
            owner.stop()
            started = time.perf_counter()
            failed_over = json_mod.loads(exchange(
                via_router, "POST", "/v1/discover",
                body=discover_body, content_type="application/json",
            ))
            failover_recovery_s = time.perf_counter() - started
            via_router.close()

            identical = json_mod.dumps(
                failed_over["rules"], sort_keys=True
            ) == json_mod.dumps(baseline["rules"], sort_keys=True)
        finally:
            router.stop()
            for worker in fleet:
                worker.stop()

    return {
        "db_size": db_size,
        "support": support,
        "algorithm": "ctane",
        "workers": workers,
        "n_requests": n_requests,
        "requests_per_second_direct": round(n_requests / direct_s, 2),
        "requests_per_second_router": round(n_requests / router_s, 2),
        "router_overhead_pct": round((router_s - direct_s) / direct_s * 100, 1),
        "failover_recovery_s": failover_recovery_s,
        "failover_byte_identical": identical,
    }


# ---------------------------------------------------------------------- #
# section 8: fault recovery — checkpointed resume vs cold restart, and the
# fault-free cost of the injection hooks themselves
# ---------------------------------------------------------------------- #
def bench_fault_recovery(db_size: int, support: int, repeats: int) -> dict:
    """Time-to-result after a mid-lattice crash, resume vs cold restart.

    Each timed resume is seeded by an untimed crashed run: a victim
    ``Profiler`` armed with ``engine.level:error:after=1,times=1`` dies at
    the level-3 checkpoint, leaving the level frontier durable in a
    ``CacheStore``.  The resume timing is then everything a restarted
    worker pays — fresh ``Profiler``, ``attach_store``, run — against a
    cold restart that rebuilds the lattice from scratch.  Both sides run
    store-attached (a production worker always does), so both pay the
    per-level checkpoint persistence; the resume's win is the skipped
    level computation.  The resumed cover must match the cold cover
    byte-identically.

    The second half prices the hooks when nothing is injected: the same
    cold run with no plan versus with an armed plan whose rules match no
    injection point, interleaved best-of so CI can hold the overhead to
    ≤ 2% without flaking on scheduler noise.
    """
    import json as json_mod
    import tempfile

    from repro.api import Profiler
    from repro.serve import CacheStore, FaultPlan
    from repro.serve.faults import FaultInjected

    relation = tax_relation(db_size, seed=3)
    relation.encoded_matrix()
    relation.fingerprint()
    request = DiscoveryRequest(min_support=support, algorithm="ctane")

    resume_s = float("inf")
    resumed = None
    with tempfile.TemporaryDirectory() as tmp:
        cold_store = CacheStore(Path(tmp) / "cold")

        def cold():
            profiler = Profiler(relation)
            profiler.attach_store(cold_store)
            return profiler.run(request)

        cold_s = time_best(cold, repeats)
        cold_rules = json_mod.dumps(cold().to_json_dict()["rules"])

        store = CacheStore(Path(tmp) / "crash")
        for _ in range(max(1, repeats)):
            # Seed the crash (untimed): the victim dies mid-lattice but the
            # completed level frontier is already durable in the store.
            victim = Profiler(relation, faults=FaultPlan.from_specs(
                ["engine.level:error:after=1,times=1"], seed=7
            ))
            victim.attach_store(store)
            try:
                victim.run(request)
            except FaultInjected:
                pass
            survivor = Profiler(relation)
            survivor.attach_store(store)
            started = time.perf_counter()
            resumed = survivor.run(request)
            resume_s = min(resume_s, time.perf_counter() - started)
    resumed_rules = json_mod.dumps(resumed.to_json_dict()["rules"])

    # Hook overhead: an armed plan that never matches, against no plan at
    # all.  Interleaved back-to-back pairs, overhead taken as the median
    # of the per-pair ratios — the two runs of a pair share the machine's
    # load conditions, so slow load drift cancels out of each ratio where
    # it would poison a best-of or a pooled median.
    import statistics

    idle_plan = FaultPlan.from_specs(["no.such.point:error"], seed=7)
    baseline_times, armed_times, ratios = [], [], []
    for _ in range(max(7, repeats)):
        started = time.perf_counter()
        Profiler(relation).run(request)
        baseline_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        Profiler(relation, faults=idle_plan).run(request)
        armed_times.append(time.perf_counter() - started)
        ratios.append(armed_times[-1] / baseline_times[-1])
    assert not idle_plan.describe()["injected"], "idle plan must stay idle"
    baseline_s = min(baseline_times)
    armed_s = min(armed_times)
    hook_overhead_pct = round((statistics.median(ratios) - 1.0) * 100, 2)

    return {
        "db_size": db_size,
        "support": support,
        "algorithm": "ctane",
        "cold_restart_s": cold_s,
        "resume_s": resume_s,
        "resume_speedup": cold_s / resume_s,
        "resumed_level": resumed.stats.extras["resumed_level"],
        "resume_levels_skipped": resumed.stats.extras["resume_levels_skipped"],
        "byte_identical_output": resumed_rules == cold_rules,
        "hook_baseline_s": baseline_s,
        "hook_armed_s": armed_s,
        "hook_overhead_pct": hook_overhead_pct,
    }


# ---------------------------------------------------------------------- #
# ---------------------------------------------------------------------- #
# section 9: wide relations (the dfd walk engine's scenario class)
# ---------------------------------------------------------------------- #
def bench_wide_relations(narrow_cols: int, wide_cols: int, n_rows: int,
                         wide_cfds: int, repeats: int) -> dict:
    """Schema-wide profiling: the walk engine against the levelwise sweep.

    Two seeded :class:`~repro.datagen.wide.WideRelationGenerator` relations
    with embedded FDs/CFDs at the generator's derived support threshold:

    * at ``narrow_cols`` (CTANE-feasible) every wide-capable engine runs and
      the covers must match rule for rule — the oracle criterion;
    * at ``wide_cols`` CTANE's levelwise lattice is infeasible (the paper
      reports failure beyond arity 17; its ``max_auto_arity`` declares it,
      so ``auto`` never sends such a relation there) — recorded as ``None``
      rather than timed — while ``dfd`` and FastCFD complete; ``dfd`` is
      the engine whose runtime scales with the dependency boundary.
    """
    from repro.core.dfd import DFD
    from repro.datagen.wide import WideRelationGenerator

    def canonical(cfds):
        return sorted(repr(cfd) for cfd in cfds)

    narrow_gen = WideRelationGenerator(
        n_cols=narrow_cols, n_rows=n_rows, seed=0, n_fds=3, n_cfds=2
    )
    narrow = narrow_gen.generate()
    narrow_k = narrow_gen.min_support
    ctane_s = time_best(
        lambda: CTane(narrow, narrow_k).discover(), repeats
    )
    fastcfd_narrow_s = time_best(
        lambda: FastCFD(narrow, narrow_k).discover(), repeats
    )
    dfd_narrow_s = time_best(
        lambda: DFD(narrow, narrow_k, seed=0).discover(), repeats
    )
    ctane_cover = canonical(CTane(narrow, narrow_k).discover())
    dfd_cover = canonical(DFD(narrow, narrow_k, seed=0).discover())
    fastcfd_cover = canonical(FastCFD(narrow, narrow_k).discover())

    wide_gen = WideRelationGenerator(
        n_cols=wide_cols, n_rows=n_rows, seed=0, n_fds=4, n_cfds=wide_cfds
    )
    wide = wide_gen.generate()
    wide_k = wide_gen.min_support
    wide_engine = DFD(wide, wide_k, seed=0)
    started = time.perf_counter()
    wide_cover = wide_engine.discover()
    dfd_wide_s = time.perf_counter() - started

    return {
        "rows": n_rows,
        "narrow": {
            "arity": narrow_cols,
            "support": narrow_k,
            "ctane_s": ctane_s,
            "fastcfd_s": fastcfd_narrow_s,
            "dfd_s": dfd_narrow_s,
            "n_cfds": len(ctane_cover),
            "covers_match": ctane_cover == dfd_cover == fastcfd_cover,
        },
        "wide": {
            "arity": wide_cols,
            "support": wide_k,
            # Levelwise CTANE is infeasible at this arity (its declared
            # max_auto_arity is 17) — not attempted, recorded as None.
            "ctane_s": None,
            "dfd_s": dfd_wide_s,
            "dfd_n_cfds": len(wide_cover),
            "dfd_partitions_computed": wide_engine.partitions_computed,
            "dfd_restarts": wide_engine.restarts,
        },
    }


# ---------------------------------------------------------------------- #
# section 10: tracing overhead (the sampled-out no-op fast path)
# ---------------------------------------------------------------------- #
def bench_tracing_overhead(db_size: int, support: int, pairs: int) -> dict:
    """The cost of instrumentation that records nothing.

    Two process-global tracer states, interleaved back-to-back so machine
    load drift cancels out of each per-pair ratio (the same methodology as
    the idle-fault-hook overhead in section 8):

    * **untraced** — a disabled tracer: every ``start_*`` short-circuits on
      the ``enabled`` flag;
    * **sampled-out** — an enabled tracer at ``sample_rate=0``: the root
      roll fails, children find an unsampled context, and every site gets
      the shared :data:`~repro.obs.NOOP_SPAN` — the state a production
      worker is in for every unsampled request.

    CTANE is the workload because its per-level spans make it the most
    span-dense instrumented path per unit of work.
    """
    import gc
    import statistics

    from repro import obs

    relation = tax_relation(db_size)
    request = DiscoveryRequest(min_support=support, algorithm="ctane")
    execute(relation, request)  # warm-up: page in the caches and code paths

    untraced = obs.Tracer(enabled=False)
    sampled_out = obs.Tracer(service="bench", sample_rate=0.0)

    def run(tracer) -> float:
        obs.set_tracer(tracer)
        gc.collect()
        gc.disable()
        started = time.perf_counter()
        with tracer.start_trace("repro.bench.request"):
            execute(relation, request)
        elapsed = time.perf_counter() - started
        gc.enable()
        return elapsed

    untraced_times, sampled_out_times, ratios = [], [], []
    try:
        # ABBA ordering: alternate which side of the pair runs first, so a
        # monotonic load or thermal drift cancels out of the pair ratios
        # instead of biasing them all one way.
        for pair in range(max(9, pairs)):
            if pair % 2 == 0:
                off, on = run(untraced), run(sampled_out)
            else:
                on, off = run(sampled_out), run(untraced)
            untraced_times.append(off)
            sampled_out_times.append(on)
            ratios.append(on / off)
    finally:
        obs.disable()
    assert len(sampled_out.ring) == 0, "sampled-out tracer must record nothing"

    return {
        "db_size": db_size,
        "support": support,
        "algorithm": "ctane",
        "pairs": len(ratios),
        "untraced_s": min(untraced_times),
        "sampled_out_s": min(sampled_out_times),
        "overhead_ratio": round(statistics.median(ratios), 4),
        "overhead_pct": round((statistics.median(ratios) - 1.0) * 100, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: same document shape, seconds of runtime",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON document (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (best-of)"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        micro_rows, base_db, base_k = 400, 300, 5
        e2e_db, supports, repeats = 300, [5], 1
        serving_db, serving_supports = 300, [3, 5, 8]
        http_requests = 20
        wide_cfds = 0  # FD-only at 120 columns keeps the smoke run short
    else:
        micro_rows, base_db, base_k = 5000, 2000, 20
        e2e_db, supports, repeats = 2000, [10, 20, 50], 3
        serving_db, serving_supports = 2000, [10, 20, 50]
        http_requests = 50
        wide_cfds = 2
    if args.repeats is not None:
        repeats = args.repeats

    started = time.perf_counter()
    micro = bench_partitions(micro_rows, 7, repeats)
    end_to_end = bench_end_to_end(e2e_db, supports, max(1, repeats - 1))
    serving = bench_serving(
        serving_db, serving_supports, workers=4, repeats=max(1, repeats - 1)
    )
    persistence = bench_persistence(
        base_db, base_k, max(1, repeats - 1)
    )
    http_serving = bench_http_serving(
        base_db, base_k, n_requests=http_requests
    )
    fleet_serving = bench_fleet_serving(
        base_db, base_k, n_requests=http_requests
    )
    fault_recovery = bench_fault_recovery(
        base_db, base_k, max(1, repeats - 1)
    )
    wide_relations = bench_wide_relations(
        narrow_cols=30, wide_cols=120, n_rows=96,
        wide_cfds=wide_cfds, repeats=max(1, repeats - 1),
    )
    tracing_overhead = bench_tracing_overhead(
        base_db, base_k, pairs=max(7, repeats)
    )

    document = {
        "suite": "bench_perf_suite",
        "mode": "smoke" if args.smoke else "full",
        **machine_info(),
        "total_seconds": round(time.perf_counter() - started, 3),
        "micro": micro,
        "end_to_end": end_to_end,
        "serving": serving,
        "persistence": persistence,
        "http_serving": http_serving,
        "fleet_serving": fleet_serving,
        "fault_recovery": fault_recovery,
        "wide_relations": wide_relations,
        "tracing_overhead": tracing_overhead,
        # Pre-substrate numbers measured on the PR-1 tree (same machine
        # class, db_size=2000/k=20 and the 5000-row product chain), kept as
        # the fixed origin of the trajectory.
        "recorded_seed_baseline": {
            "partition_product_chain_s": 0.0313,
            "partition_construct_s": 0.0145,
            "ctane_2000_k20_s": 1.136,
            "fastcfd_2000_k20_s": 0.646,
            "cfdminer_2000_k20_s": 0.042,
        },
    }
    write_report(document, args.output)

    print(f"wrote {args.output}")
    print("\npartition microbenchmarks "
          f"({micro['rows']} rows, arity {micro['arity']}):")
    micro_rows_table = [
        {"benchmark": key, **values}
        for key, values in micro.items()
        if isinstance(values, dict)
    ]
    print(render_rows(
        micro_rows_table, ["benchmark", "label_array_s", "reference_s", "speedup"]
    ))
    print("\nend-to-end discovery:")
    print(render_rows(
        end_to_end, ["algorithm", "db_size", "support", "seconds", "n_cfds"]
    ))
    print(f"\nserving throughput (db={serving['db_size']}, "
          f"{serving['n_requests']} requests, {serving['workers']} workers): "
          f"{serving['requests_per_second']} req/s pooled vs "
          f"{serving['sequential_oneshot_s']:.3f}s sequential one-shot "
          f"({serving['speedup']:.2f}x)")
    print(f"\npersistence (db={persistence['db_size']}, "
          f"k={persistence['support']}, ctane): cold {persistence['cold_s']:.3f}s "
          f"vs warm-start {persistence['warm_s']:.3f}s "
          f"({persistence['speedup']:.1f}x, store "
          f"{persistence['store_entries']} entries / "
          f"{persistence['store_bytes']} bytes, byte-identical="
          f"{persistence['byte_identical_output']})")
    print(f"\nhttp serving (db={http_serving['db_size']}, "
          f"k={http_serving['support']}, ctane over a real socket): "
          f"{http_serving['requests_per_second']} req/s steady-state, "
          f"first request cold {http_serving['first_request_cold_s']:.3f}s vs "
          f"warm-start {http_serving['first_request_warm_s']:.3f}s "
          f"({http_serving['warm_speedup']:.1f}x)")
    print(f"\nfleet serving (db={fleet_serving['db_size']}, "
          f"k={fleet_serving['support']}, {fleet_serving['workers']} workers): "
          f"{fleet_serving['requests_per_second_router']} req/s through the "
          f"router vs {fleet_serving['requests_per_second_direct']} req/s "
          f"direct ({fleet_serving['router_overhead_pct']}% overhead), "
          f"failover recovery "
          f"{fleet_serving['failover_recovery_s']:.3f}s "
          f"(byte-identical={fleet_serving['failover_byte_identical']})")
    print(f"\nfault recovery (db={fault_recovery['db_size']}, "
          f"k={fault_recovery['support']}, ctane): checkpointed resume "
          f"{fault_recovery['resume_s']:.3f}s vs cold restart "
          f"{fault_recovery['cold_restart_s']:.3f}s "
          f"({fault_recovery['resume_speedup']:.1f}x, resumed at level "
          f"{fault_recovery['resumed_level']} skipping "
          f"{fault_recovery['resume_levels_skipped']}, byte-identical="
          f"{fault_recovery['byte_identical_output']}); idle fault hooks "
          f"{fault_recovery['hook_overhead_pct']}% overhead")
    narrow_w = wide_relations["narrow"]
    wide_w = wide_relations["wide"]
    print(f"\nwide relations ({wide_relations['rows']} rows): at arity "
          f"{narrow_w['arity']} ctane {narrow_w['ctane_s']:.3f}s vs "
          f"fastcfd {narrow_w['fastcfd_s']:.3f}s vs "
          f"dfd {narrow_w['dfd_s']:.3f}s "
          f"({narrow_w['n_cfds']} CFDs, covers_match="
          f"{narrow_w['covers_match']}); at arity {wide_w['arity']} "
          f"ctane N/A, dfd {wide_w['dfd_s']:.3f}s "
          f"({wide_w['dfd_n_cfds']} CFDs, "
          f"{wide_w['dfd_partitions_computed']} partitions, "
          f"{wide_w['dfd_restarts']} restarts)")
    print(f"\ntracing overhead (db={tracing_overhead['db_size']}, "
          f"k={tracing_overhead['support']}, ctane, "
          f"{tracing_overhead['pairs']} interleaved pairs): sampled-out "
          f"{tracing_overhead['sampled_out_s']:.3f}s vs untraced "
          f"{tracing_overhead['untraced_s']:.3f}s "
          f"({tracing_overhead['overhead_pct']}% overhead)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
