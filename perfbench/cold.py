"""The profile-cold program process: one fresh interpreter, no server, no store.

Started by ``run.py`` with a plan file.  It imports the library, reports
``ready`` on stdout (the end of its set-up), waits for ``go`` on stdin,
then runs whole cycles of ops until the time is up and writes its results.
After each op, untimed, it runs one reference unit (``common.reference_unit``):
together they give the host's speed around each op (``common.HostSpeed``).

Untraced, each op is what ``repro-discover file.csv`` does: ``read_csv``
and a fresh ``Profiler(relation).run(request)``.  Traced, the same op is
made of the public calls the engine would make anyway, each timed from
here: load (``read_csv`` + ``encoded_matrix``), ``free_closed`` for the
engines that mine item sets, ``closed_difference_sets`` for FastCFD, then
``run`` on the warmed session.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import clock, reference_unit, result_digest  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    from repro.api import DiscoveryRequest, Profiler
    from repro.relational.io import read_csv

    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0  # a set-up-only start: import, report, exit
    traced = plan["trace"]
    spans = SpanRecorder()
    sets = [
        [
            (op["path"], DiscoveryRequest(min_support=op["support"], algorithm=op["algorithm"]))
            for op in ops
        ]
        for ops in plan["sets"]
    ]
    records = []
    references = []  # [start, end, seconds of the unit]
    started = clock()
    op_id = 0
    for cycle in itertools.count():
        spent = clock() - started - sum(end - start for start, end, _unit in references)
        if spent >= plan["seconds"] and len(records) >= plan["min_ops"]:
            break
        set_index = cycle % len(sets)
        for position, (path, request) in enumerate(sets[set_index]):
            op_id += 1
            op_start = clock()
            if traced:
                result, load_s, latency = _traced_op(spans, op_id, path, request, Profiler, read_csv)
            else:
                t0 = clock()
                relation = read_csv(path)
                t1 = clock()
                result = Profiler(relation).run(request)
                latency = clock() - t0
                load_s = t1 - t0
            records.append(
                {
                    "op": op_id,
                    "start": op_start,
                    "set": set_index,
                    "position": position,
                    "latency": latency,
                    "load": load_s,
                    "digest": result_digest(result),
                    "partitions": result.stats.extras.get("partitions_computed")
                    if result.stats is not None
                    else None,
                }
            )
            before = clock()
            unit = reference_unit()
            references.append([before, clock(), unit])
    Path(plan["out"]).write_text(
        json.dumps(
            {"begin": started, "end": clock(), "records": records, "spans": spans.records,
             "references": references}
        )
    )
    return 0


def _traced_op(spans, op_id, path, request, Profiler, read_csv):
    with spans.span("op", op=op_id) as root:
        with spans.span("relational.load", op=op_id) as load:
            relation = read_csv(path)
            relation.encoded_matrix()
        profiler = Profiler(relation)
        if request.algorithm in ("cfdminer", "fastcfd", "dfd"):
            with spans.span("itemsets.free_closed", op=op_id):
                profiler.free_closed(request.min_support, request.max_lhs_size)
        if request.algorithm == "fastcfd":
            with spans.span("fd.diffsets", op=op_id):
                profiler.closed_difference_sets()
        with spans.span(f"core.{request.algorithm}", op=op_id):
            result = profiler.run(request)
    return result, load.duration, root.duration


if __name__ == "__main__":
    sys.exit(main())
