"""Re-measure the legacy CTANE figures ROADMAP item 1 names, layer by layer.

    python3 perfbench/reconcile.py

One fresh interpreter times the legacy suite's configuration (Tax, 2000
rows, seed 3, CTANE at k=20, relation pre-encoded) at four entry depths,
interleaved round by round so every depth sees the same machine load:

* ``execute``  — ``repro.api.execute`` with no session (the raw engine path);
* ``profiler`` — a fresh ``Profiler(relation).run`` (legacy sections 5 and 8);
* ``traced``   — the same with the program's tracer on at sample rate 1.0;
* ``store``    — a fresh ``Profiler`` with a ``CacheStore`` attached, as a
  serving worker runs a cold request: CTANE checkpoints every level.  The
  store is the traced worker's ``TimedStore``, so checkpoint ``put()``s are
  the same ``store.checkpoint`` spans as in the benchmark's traced runs;
  packing the checkpoints is timed as a ``store.pack`` span beside them.
  Each run's spans are folded with ``spans.layer_table``.

Prints median and minimum per depth.  ``NOTES.md`` records a run.
"""

from __future__ import annotations

import shutil
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, WORK, clock, require_program  # noqa: E402

#: Interleaved rounds; each times every depth once.
ROUNDS = 5


def main() -> int:
    require_program()
    sys.path.insert(0, str(SRC))
    from spans import layer_table
    from traced_worker import RECORDER, TimedStore

    from repro import obs
    from repro.api import DiscoveryRequest, Profiler, execute
    from repro.datagen.tax import generate_tax
    from repro.serve import store as store_module

    pack = store_module.pack_ctane_checkpoint

    def timed_pack(state):
        with RECORDER.span("store.pack"):
            return pack(state)

    # Rebinds the attribute the checkpoint handle looks up, in this process.
    store_module.pack_ctane_checkpoint = timed_pack

    relation = generate_tax(2000, arity=7, cf=0.7, seed=3)
    relation.encoded_matrix()
    relation.fingerprint()
    request = DiscoveryRequest(min_support=20, algorithm="ctane")
    root = WORK / "reconcile"
    store_layers = []

    def run_store() -> None:
        shutil.rmtree(root, ignore_errors=True)
        profiler = Profiler(relation)
        profiler.attach_store(TimedStore(root))
        first = len(RECORDER.records)
        with RECORDER.span("op"):
            profiler.run(request)
        store_layers.append(layer_table(RECORDER.records[first:], {"op"})["layers"])

    def run_traced() -> None:
        tracer = obs.configure(service="reconcile", sample_rate=1.0)
        try:
            with tracer.start_trace("reconcile.request"):
                Profiler(relation).run(request)
        finally:
            obs.disable()

    depths = {
        "execute": lambda: execute(relation, request),
        "profiler": lambda: Profiler(relation).run(request),
        "traced": run_traced,
        "store": run_store,
    }
    times = {name: [] for name in depths}
    for _ in range(ROUNDS):
        for name, fn in depths.items():
            started = clock()
            fn()
            times[name].append(clock() - started)
    shutil.rmtree(root, ignore_errors=True)
    print(f"Tax 2000 rows, seed 3, CTANE k=20, {ROUNDS} interleaved rounds")
    print(f"  {'depth':<10}{'median s':>10}{'min s':>10}")
    for name, values in times.items():
        print(f"  {name:<10}{statistics.median(values):>10.3f}{min(values):>10.3f}")

    def per_run(span: str, field: str) -> float:
        return statistics.median(
            layers[span][field] if span in layers else 0 for layers in store_layers
        )

    checkpoint_bytes = sum(
        r["attrs"].get("bytes", 0) for r in RECORDER.records if r["name"] == "store.checkpoint"
    ) / ROUNDS
    print(
        f"  store.checkpoint: median {per_run('store.checkpoint', 'total_self_s'):.3f}s per run "
        f"over {per_run('store.checkpoint', 'calls'):.0f} checkpoint puts, "
        f"{checkpoint_bytes / 2**20:.1f} MiB written per run"
    )
    print(f"  store.pack (pack_ctane_checkpoint): median {per_run('store.pack', 'total_self_s'):.3f}s per run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
