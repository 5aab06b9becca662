"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest -q perfbench/checks.py``
(about two minutes: each workload is started for real).  The file is not
named ``test_*.py``, so the repository's test suite does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from common import WORK  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
WORKERS = ("http://127.0.0.1:39321", "http://127.0.0.1:39322")
WORKLOADS = ("profile-cold", "serve-hot", "serve-churn")


def _fingerprint(workload: str, seed: int):
    shutil.rmtree(WORK / "inputs" / f"{workload}-{seed}", ignore_errors=True)
    w = inputs.build(workload, seed, WORKERS)
    files = {
        name: hashlib.sha256(rel.path.read_bytes()).hexdigest()
        for name, rel in w.relations.items()
    }
    cycles = w.cycles()
    ops = [next(cycles) for _ in range(3)]
    return files, w.warmup, ops


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_and_ops(workload):
    first = _fingerprint(workload, 4242)
    second = _fingerprint(workload, 4242)
    assert first == second
    other = _fingerprint(workload, 4243)
    assert other[0] != first[0]


def test_profile_cold_sets_share_one_template():
    def shapes(w):
        # The dfd support is derived from the seed's wide relation.
        return [
            [
                (op.request.algorithm,
                 None if op.request.algorithm == "dfd" else op.request.support,
                 w.relations[op.relation].spec.rows)
                for op in ops
            ]
            for ops in w.sets
        ]

    w = inputs.build("profile-cold", 4242)
    sets = shapes(w)
    assert len(sets) == inputs.COLD_SETS
    assert all(other == sets[0] for other in sets[1:])
    tax = [op.relation for ops in w.sets for op in ops if op.request.algorithm != "dfd"]
    assert len(set(tax)) == len(tax)
    # Another seed: other relations and op order, the same op shapes.
    assert sorted(shapes(inputs.build("profile-cold", 4243))[0]) == sorted(sets[0])


def test_ok_ratio_counts_each_op_once():
    from common import HostSpeed
    from run import e2e_metrics

    records = [
        {"kind": "discover", "start": float(i), "latency": 0.1, "ok": i != 0} for i in range(100)
    ]
    uploads = [{"start": float(i), "latency": 0.01} for i in range(100)]
    metrics, extra = e2e_metrics(
        records, 0.0, 100.0, [1.0], 1024, None, HostSpeed([]), uploads=uploads
    )
    assert metrics["ok_ratio"]["value"] == pytest.approx(0.99)
    assert extra["failed_ratio"]["value"] == pytest.approx(0.01)
    assert metrics["upload_s.p50"]["value"] == pytest.approx(0.01)


def test_times_are_scaled_by_host_speed_around_them():
    from common import REFERENCE_UNIT_S, SCALE_WINDOW_S, HostSpeed
    from run import e2e_metrics

    # The host ran at half the reference speed for 50 s, then at full speed.
    late = 50.0 + 2 * SCALE_WINDOW_S
    samples = [[t, t + 0.01, 2 * REFERENCE_UNIT_S] for t in range(0, 50)]
    samples += [[t, t + 0.01, REFERENCE_UNIT_S] for t in range(int(late), int(late) + 50)]
    speed = HostSpeed(samples)
    assert speed.scale(10.0) == pytest.approx(0.5)
    assert speed.scale(late + 10.0) == pytest.approx(1.0)
    slow = [{"kind": "discover", "start": 10.0, "latency": 0.2, "ok": True}] * 11
    fast = [{"kind": "discover", "start": late + 10.0, "latency": 0.1, "ok": True}] * 11
    metrics, extra = e2e_metrics(slow + fast, 0.0, 10.0, [1.5], 1024, None, speed)
    assert metrics["discover_s.p50"]["value"] == pytest.approx(0.1)
    assert metrics["discover_s.p90"]["value"] == pytest.approx(0.1)
    assert metrics["discover_s.p90"]["raw"] == pytest.approx(0.2)
    # Ten seconds at half speed are five reference seconds, less the samples.
    assert metrics["discover_per_s"]["value"] == pytest.approx(22 / (5.0 - 10 * 0.005))
    # The whole run's factor, the median of all its samples, scales the
    # set-ups unless they have their own.
    assert extra["host_scale"]["value"] == pytest.approx(1 / 1.5)
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)
    metrics, _extra = e2e_metrics(slow + fast, 0.0, 10.0, [1.5], 1024, None, speed, 2.0)
    assert metrics["setup_s"]["value"] == pytest.approx(3.0)


def test_fleet_problems_fail_the_run():
    from run import run_correct

    run = {"records": [{"ok": True}]}
    assert run_correct(run)
    assert not run_correct(dict(run, problems=["worker0 exited with 1 on SIGTERM"]))
    assert not run_correct(dict(run, setup_failures=[{"ok": False}]))
    assert not run_correct({"records": [{"ok": True}, {"ok": False}]})


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(inputs.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
         "--min-discovers", "1"],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_has_no_failures_and_known_metrics(workload):
    done = _run(workload, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == E2E
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    done = _run("profile-cold", 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == PER_LAYER
    assert "per-layer self time" in done.stdout
    assert "tracing overhead" in done.stdout


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("profile-cold", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
