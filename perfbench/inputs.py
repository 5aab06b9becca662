"""Seeded inputs of the three workloads, and the covers they must produce.

``build(workload, seed)`` writes every relation the workload needs as CSV
under the work directory and returns a :class:`Workload` that holds the
relations, the request variants and the op sequence.  The same seed always
gives byte-identical CSVs and the same op sequence; the program only ever
sees the CSVs.

Expected covers come from the one-shot library path
(``repro.api.execute`` without a session).  The digests of the default seed
are committed in ``expected.json``; for any other seed they are computed
before the run and kept in the work directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from common import WORK, clock, dump_json, load_json, program_env

DEFAULT_SEED = 1
COMMITTED = Path(__file__).resolve().parent / "expected.json"
CACHE = WORK / "expected-cache.json"
#: Child interpreters computing expected covers, and how long each may take.
DIGEST_PROCESSES = 2
DIGEST_TIMEOUT = 150.0

#: Tax arity of every Tax relation (the generator's minimum).
TAX_ARITY = 7
#: Columns x rows of the wide relation: just past the 62-attribute
#: bitmask fast path, so the packed-bytes AttrSet path carries the walk.
WIDE_SHAPE = (64, 96)

# profile-cold: the paper's evaluation axis, shrunk so a run holds more
# than 100 discoveries.  Every Tax op of a cycle profiles its own relation,
# sized along an even ladder over COLD_ROWS, and successive cycles walk
# COLD_SETS distinct sets of Tax relations built from one template: a
# run's percentiles then fall in a smooth spread of sizes and average over
# many relations, not one or two, and every cycle holds the same mix of
# ops.  A run holds six cycles (100 discoveries take six), each set twice;
# three sets keep the expected covers computed before a run few.
COLD_ROWS = (120, 240)
COLD_ALGORITHMS = ("cfdminer", "ctane", "fastcfd")
COLD_SUPPORTS = (10, 20, 50)
COLD_OPS_PER_PAIR = 2
COLD_SETS = 3

# serve-hot: four Tax relations plus the wide one, every request variant.
# The last field places the relation on the wide relation's worker or on
# the other one, so every seed meets one layout: which relations share a
# worker sets how often the two connections wait on each other.
HOT_RELATIONS = (
    (400, "fastcfd", 20, False),
    (500, "fastcfd", 50, False),
    (700, "cfdminer", 10, True),
    (450, "ctane", 50, True),
)
HOT_VARIANTS = ("json", "constant_only", "jsonl", "prefix")
#: Uploads per cycle of discovers (one cycle = every relation x variant):
#: 3 of 23 ops, enough samples for a steady upload median.
HOT_UPLOADS_PER_CYCLE = 3

# serve-churn: a rotation larger than the workers' pools, plus fresh
# relations whose first discovery runs cold and store-attached.  The cold
# discoveries are CTANE's, the engine that checkpoints every lattice level:
# at one in seven discoveries they hold the p90.  (With FastCFD's quicker
# cold runs mixed in, p90 fell on the edge between the two clusters.)
CHURN_ROTATION = 8
CHURN_ROWS = 150
CHURN_SUPPORT = 20
CHURN_COLD_ALGORITHM = "ctane"
CHURN_ALGORITHMS = ("ctane", "fastcfd")
#: Warm discovers per cold (fresh upload + first discovery) in one cycle.
CHURN_WARM_PER_COLD = 6
#: Re-uploads of rotation CSVs per cycle: parsing writes beside the reads,
#: and enough upload samples for a steady median.
CHURN_REUPLOADS = 4
#: Fresh relations prepared per run, one per cycle: a cycle takes about
#: 0.8s on a 2-vCPU VM, so 48 last a 12s run at three times that speed.
#: Running out fails the run (see ``run.py``).
CHURN_FRESH = 48
#: Sessions each churn worker may keep (well below its share of the rotation).
CHURN_POOL_SESSIONS = 1


@dataclass(frozen=True)
class RelationSpec:
    name: str
    kind: str  # "tax" or "wide"
    rows: int
    seed: int
    cols: int = TAX_ARITY

    def generate(self):
        if self.kind == "tax":
            from repro.datagen.tax import generate_tax

            return generate_tax(self.rows, arity=self.cols, seed=self.seed)
        from repro.datagen.wide import WideRelationGenerator

        return WideRelationGenerator(
            n_cols=self.cols, n_rows=self.rows, seed=self.seed
        ).generate()

    def wide_support(self) -> int:
        from repro.datagen.wide import WideRelationGenerator

        return WideRelationGenerator(
            n_cols=self.cols, n_rows=self.rows, seed=self.seed
        ).min_support


@dataclass
class Relation:
    """One generated input: its CSV on disk plus its content digest."""

    spec: RelationSpec
    path: Path
    digest: str
    size: int


@dataclass(frozen=True)
class Request:
    """One discover request as the HTTP body fields and the library request."""

    algorithm: str
    support: int
    constant_only: bool = False
    limit_rows: Optional[int] = None

    def body(self) -> Dict[str, object]:
        body: Dict[str, object] = {"algorithm": self.algorithm, "support": self.support}
        if self.constant_only:
            body["constant_only"] = True
        if self.limit_rows is not None:
            body["limit_rows"] = self.limit_rows
        return body

    def library(self):
        from repro.api import DiscoveryRequest

        return DiscoveryRequest(
            min_support=self.support,
            algorithm=self.algorithm,
            constant_only=self.constant_only,
            limit_rows=self.limit_rows,
        )


#: The first discovery of every fresh serve-churn relation.
FRESH_REQUEST = Request(CHURN_COLD_ALGORITHM, CHURN_SUPPORT)


@dataclass(frozen=True)
class Op:
    """One timed operation of a workload."""

    kind: str  # "discover" or "upload"
    relation: str
    request: Optional[Request] = None
    stream: bool = False
    cold: bool = False


@dataclass
class Workload:
    name: str
    seed: int
    relations: Dict[str, Relation] = field(default_factory=dict)
    #: Relations uploaded (and answered once) during set-up.
    setup_relations: List[str] = field(default_factory=list)
    #: Discover ops answered once during set-up (warm-up).
    warmup: List[Op] = field(default_factory=list)
    #: serve-hot: the discovers of one cycle (each cycle reshuffles them).
    cycle: List[Op] = field(default_factory=list)
    #: profile-cold: the cycles, each over its own relations, taken in turn.
    sets: List[List[Op]] = field(default_factory=list)
    #: serve-hot: the relations re-uploaded in turn, HOT_UPLOADS_PER_CYCLE
    #: per cycle.
    reuploads: List[str] = field(default_factory=list)
    #: serve-churn: the rotation the warm discovers walk, and the fresh
    #: relations consumed one per cycle.
    rotation: List[Op] = field(default_factory=list)
    fresh: List[str] = field(default_factory=list)
    expected: Dict[Tuple[str, Request], str] = field(default_factory=dict)

    def expected_digest(self, op: Op) -> str:
        return self.expected[(op.relation, op.request)]

    def cycles(self) -> Iterator[List[Op]]:
        """The timed op sequence, one whole cycle at a time.

        The timed phase repeats whole cycles; serve-churn's end when its
        fresh relations run out, which fails the run.
        """
        if self.sets:
            for index in itertools.count():
                yield list(self.sets[index % len(self.sets)])
        if self.reuploads:
            # Every cycle is shuffled anew: which requests the two
            # connections send side by side then varies cycle to cycle
            # instead of repeating one seed's order for the whole run.
            turn = itertools.cycle(self.reuploads)
            order = random.Random(_derive(self.seed, "cycles"))
            while True:
                ops = list(self.cycle)
                order.shuffle(ops)
                for position in range(HOT_UPLOADS_PER_CYCLE):
                    ops.insert(
                        (position + 1) * len(self.cycle) // (HOT_UPLOADS_PER_CYCLE + 1),
                        Op("upload", next(turn)),
                    )
                yield ops
        position = 0
        for name in self.fresh:
            ops = [
                self.rotation[(position + i) % len(self.rotation)]
                for i in range(CHURN_WARM_PER_COLD)
            ]
            ops += [
                Op("upload", self.rotation[(position + i) % len(self.rotation)].relation)
                for i in range(CHURN_REUPLOADS)
            ]
            position += CHURN_WARM_PER_COLD
            ops.append(Op("upload", name, cold=True))
            ops.append(Op("discover", name, FRESH_REQUEST, cold=True))
            yield ops


def _derive(seed: int, label: str) -> int:
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") % (2 ** 31)


def _write(spec: RelationSpec, directory: Path) -> Relation:
    from repro.relational.io import write_csv

    path = directory / f"{spec.name}-{spec.kind}{spec.rows}x{spec.cols}-{spec.seed}.csv"
    if not path.exists():
        tmp = path.with_suffix(".tmp")
        write_csv(spec.generate(), tmp)
        tmp.replace(path)
    data = path.read_bytes()
    return Relation(
        spec, path, hashlib.blake2b(data, digest_size=16).hexdigest(), len(data)
    )


def ring_of(workers: Sequence[str]):
    """The router's placement ring over these worker URLs (``None`` if none)."""
    if not workers:
        return None
    from repro.serve.fleet.ring import HashRing

    ring = HashRing()
    for worker in workers:
        ring.add(worker)
    return ring


def _owner(ring, path: Path) -> Optional[str]:
    """The worker the router places this CSV's relation on."""
    if ring is None:
        return None
    from repro.relational.io import read_csv

    return ring.assign(read_csv(path).fingerprint())


def build(workload: str, seed: int, workers: Sequence[str] = ()) -> Workload:
    """Generate (or reuse) the workload's inputs and its op cycle.

    ``workers`` are the worker URLs the router will place relations on;
    the serving workloads use them to give each worker its share.
    """
    directory = WORK / "inputs" / f"{workload}-{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(_derive(seed, workload))
    w = Workload(workload, seed)

    def add(name: str, kind: str, rows: int, cols: int = TAX_ARITY) -> str:
        spec = RelationSpec(name, kind, rows, _derive(seed, name), cols)
        w.relations[name] = _write(spec, directory)
        return name

    if workload == "profile-cold":
        # One template for every set and every seed: each (algorithm, k),
        # in COLD_ALGORITHMS x COLD_SUPPORTS order, runs on two adjacent
        # rungs of the size ladder.  Sets then differ only in their
        # relations' seeds and cost about the same, whichever of them a run
        # repeats; the seed changes the data and the op order, never the
        # mix of op shapes.
        pairs = [
            (a, k) for a in COLD_ALGORITHMS for k in COLD_SUPPORTS
            for _ in range(COLD_OPS_PER_PAIR)
        ]
        low, high = COLD_ROWS
        ladder = [low + round((high - low) * i / (len(pairs) - 1)) for i in range(len(pairs))]
        template: List[Optional[Tuple[int, Request]]] = [
            (rows, Request(algorithm, k)) for (algorithm, k), rows in zip(pairs, ladder)
        ]
        template.append(None)  # the dfd walk
        rng.shuffle(template)
        # Every set walks the same wide relation: its expected cover, the
        # costliest to compute before a run, is then computed once.
        wide = add("wide", "wide", WIDE_SHAPE[1], WIDE_SHAPE[0])
        walk = Op("discover", wide, Request("dfd", w.relations[wide].spec.wide_support()))
        for index in range(COLD_SETS):
            ops = []
            for position, entry in enumerate(template):
                if entry is None:
                    ops.append(walk)
                    continue
                rows, request = entry
                name = add(f"set{index}-tax{position}", "tax", rows)
                ops.append(Op("discover", name, request))
            w.sets.append(ops)
    elif workload == "serve-hot":
        # Tax candidates are drawn in seed order until one lands on the
        # worker its slot names (see HOT_RELATIONS).
        ring = ring_of(workers)
        wide = add("wide", "wide", WIDE_SHAPE[1], WIDE_SHAPE[0])
        wide_owner = _owner(ring, w.relations[wide].path)
        bases = []
        for index, (rows, algorithm, k, beside_wide) in enumerate(HOT_RELATIONS):
            for candidate in itertools.count():
                name = add(f"tax{index}-{candidate}", "tax", rows)
                owner = _owner(ring, w.relations[name].path)
                if ring is None or (owner == wide_owner) == beside_wide:
                    break
                del w.relations[name]
            bases.append((name, algorithm, k, rows))
        bases.append((wide, "dfd", w.relations[wide].spec.wide_support(), WIDE_SHAPE[1]))
        w.setup_relations = [base[0] for base in bases]
        for name, algorithm, k, rows in bases:
            for variant in HOT_VARIANTS:
                request = Request(
                    algorithm,
                    k,
                    constant_only=variant == "constant_only",
                    limit_rows=rows // 2 if variant == "prefix" else None,
                )
                w.cycle.append(
                    Op("discover", name, request, stream=variant == "jsonl")
                )
        w.warmup = list(w.cycle)
        rng.shuffle(w.cycle)
        # Re-uploads walk every relation in turn, cycle after cycle.
        w.reuploads = list(w.setup_relations)
        rng.shuffle(w.reuploads)
    elif workload == "serve-churn":
        # Each worker must own its share of the rotation, or a worker owning
        # one relation would answer from its resident session.  Candidates
        # are drawn in seed order while their owner holds less.
        ring = ring_of(workers)
        share = CHURN_ROTATION // len(workers) if workers else CHURN_ROTATION
        counts: Dict[Optional[str], int] = {}
        for candidate in itertools.count():
            if len(w.rotation) == CHURN_ROTATION:
                break
            name = add(f"rot{candidate}", "tax", CHURN_ROWS)
            owner = _owner(ring, w.relations[name].path)
            if counts.get(owner, 0) >= share:
                del w.relations[name]
                continue
            counts[owner] = counts.get(owner, 0) + 1
            algorithm = CHURN_ALGORITHMS[len(w.rotation) % len(CHURN_ALGORITHMS)]
            w.rotation.append(Op("discover", name, Request(algorithm, CHURN_SUPPORT)))
        rng.shuffle(w.rotation)
        w.setup_relations = [op.relation for op in w.rotation]
        w.warmup = list(w.rotation)
        for index in range(CHURN_FRESH):
            w.fresh.append(add(f"fresh{index}", "tax", CHURN_ROWS))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return w


# ---------------------------------------------------------------------- #
# expected covers
# ---------------------------------------------------------------------- #
def _key(relation: Relation, request: Request) -> str:
    return json.dumps(
        [relation.digest, request.algorithm, request.support,
         request.constant_only, request.limit_rows],
        separators=(",", ":"),
    )


def needed(w: Workload) -> List[Tuple[str, Request]]:
    """Every (relation, request) pair a run of the workload may check."""
    ops = w.cycle + w.warmup + [op for ops in w.sets for op in ops]
    pairs = {(op.relation, op.request) for op in ops if op.request}
    for name in w.fresh:
        pairs.add((name, FRESH_REQUEST))
    return sorted(pairs, key=lambda pair: (pair[0], repr(pair[1])))


def load_expected(w: Workload) -> List[Tuple[str, Request]]:
    """Fill ``w.expected``; returns the pairs that had to be computed."""
    known: Dict[str, str] = {}
    for path in (COMMITTED, CACHE):
        if path.exists():
            known.update(load_json(path))
    computed = [
        (name, request)
        for name, request in needed(w)
        if _key(w.relations[name], request) not in known
    ]
    if computed:
        digests = _digests_in_children(w, computed)
        for (name, request), digest in zip(computed, digests):
            known[_key(w.relations[name], request)] = digest
    for name, request in needed(w):
        w.expected[(name, request)] = known[_key(w.relations[name], request)]
    if computed:
        cache = load_json(CACHE) if CACHE.exists() else {}
        cache.update({_key(w.relations[n], r): known[_key(w.relations[n], r)] for n, r in computed})
        CACHE.parent.mkdir(parents=True, exist_ok=True)
        tmp = CACHE.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache, indent=0, sort_keys=True))
        tmp.replace(CACHE)
    return computed


def _digests_in_children(w: Workload, pairs: List[Tuple[str, Request]]) -> List[str]:
    """One-shot covers of ``pairs``, untimed, before the run.

    Plain child interpreters share the work (two halve the wait); each is
    waited for, and killed on any way out, so none outlives the benchmark.
    """
    jobs = [
        {"path": str(w.relations[name].path), "request": dataclasses.asdict(request)}
        for name, request in pairs
    ]
    directory = WORK / "expected-jobs"
    shares = [list(range(index, len(jobs), DIGEST_PROCESSES)) for index in range(DIGEST_PROCESSES)]
    children = []
    try:
        for index, share in enumerate(shares):
            if not share:
                continue
            plan = directory / f"{w.name}-{w.seed}-{index}.json"
            out = plan.with_suffix(".out.json")
            out.unlink(missing_ok=True)
            dump_json(plan, [jobs[i] for i in share])
            proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--digests", str(plan), str(out)],
                env=program_env(), stdin=subprocess.DEVNULL,
            )
            children.append((proc, share, out))
        digests: List[Optional[str]] = [None] * len(jobs)
        deadline = clock() + DIGEST_TIMEOUT
        for proc, share, out in children:
            proc.wait(timeout=max(0.0, deadline - clock()))
            if proc.returncode != 0:
                raise RuntimeError(f"expected covers: child exited with {proc.returncode}")
            for i, digest in zip(share, load_json(out)):
                digests[i] = digest
    finally:
        for proc, _share, _out in children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return digests


def one_shot_digest(path: Path, request: Request) -> str:
    """The cover of the one-shot library path: no session, no store."""
    from common import result_digest
    from repro.api import execute
    from repro.relational.io import read_csv

    return result_digest(execute(read_csv(path), request.library()))


def _digests_main(plan: str, out: str) -> None:
    """Child side of :func:`_digests_in_children`."""
    jobs = load_json(Path(plan))
    dump_json(
        Path(out),
        [one_shot_digest(Path(job["path"]), Request(**job["request"])) for job in jobs],
    )


def write_committed() -> None:
    """Rewrite ``expected.json``: the default seed's covers, one-shot path."""
    from common import SRC, require_program

    require_program()
    sys.path.insert(0, str(SRC))
    from serving import pick_ports, worker_urls

    entries: Dict[str, str] = {}
    for workload in ("profile-cold", "serve-hot", "serve-churn"):
        workers = worker_urls(pick_ports(workload)) if workload != "profile-cold" else ()
        w = build(workload, DEFAULT_SEED, workers)
        for name, request in needed(w):
            entries[_key(w.relations[name], request)] = one_shot_digest(
                w.relations[name].path, request
            )
    COMMITTED.write_text(json.dumps(entries, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} expected covers to {COMMITTED.name}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digests"]:
        _digests_main(*sys.argv[2:4])
    else:
        write_committed()
