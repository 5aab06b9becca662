"""Checkpointed discovery: CTANE level snapshots, kill-resume equivalence.

The tentpole acceptance bar: a CTANE run crashed mid-lattice resumes from
its last *completed* level — in the same process (in-memory checkpoints),
or on another worker sharing the cache store (write-through checkpoints) —
and the resumed cover is byte-identical to an undisturbed run, with the
resume observable in the engine stats and the service counters.
"""

import json

import pytest

from repro.api import DiscoveryRequest, Profiler
from repro.core.ctane import CTane
from repro.relational.relation import Relation
from repro.serve import CacheStore, DiscoveryService, FaultPlan, SessionPool
from repro.serve.faults import FaultInjected
from repro.serve.store import pack_ctane_checkpoint, unpack_ctane_checkpoint

ATTRIBUTES = ["CC", "AC", "PN", "NM", "STR", "CT", "ZIP"]
ROWS = [
    ("01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"),
    ("01", "908", "1111111", "Rick", "Tree Ave.", "MH", "07974"),
    ("01", "212", "2222222", "Joe", "5th Ave", "NYC", "01202"),
    ("01", "908", "2222222", "Jim", "Elm Str.", "MH", "07974"),
    ("44", "131", "3333333", "Ben", "High St.", "EDI", "EH4 1DT"),
    ("44", "131", "4444444", "Ian", "High St.", "EDI", "EH4 1DT"),
    ("44", "908", "4444444", "Ian", "Port PI", "MH", "W1B 1JH"),
    ("01", "131", "2222222", "Sean", "3rd Str.", "UN", "01202"),
]


def fresh_relation() -> Relation:
    return Relation.from_rows(list(ATTRIBUTES), [tuple(row) for row in ROWS])


class RecordingCheckpoint:
    """An in-memory checkpoint handle: records saves, replays one state."""

    def __init__(self, preload=None):
        self.saved = []
        self.cleared = 0
        self._preload = preload

    def load(self):
        return self._preload

    def save(self, state):
        self.saved.append(state)

    def clear(self):
        self.cleared += 1


def cover(cfds) -> str:
    return json.dumps(sorted(str(cfd) for cfd in cfds))


class TestEngineCheckpointing:
    def test_levels_snapshot_then_clear_on_completion(self):
        checkpoint = RecordingCheckpoint()
        ctane = CTane(fresh_relation(), 2, checkpoint=checkpoint)
        ctane.discover()
        sizes = [state["size"] for state in checkpoint.saved]
        assert sizes and sizes == sorted(set(sizes))
        assert sizes[0] == 2  # level 1 is cheap; snapshots start at level 2
        assert checkpoint.cleared == 1
        assert ctane.resumed_level is None
        assert ctane.resume_levels_skipped == 0

    @pytest.mark.parametrize("snapshot_index", [0, -1])
    def test_resume_from_any_level_is_byte_identical(self, snapshot_index):
        baseline = CTane(fresh_relation(), 2)
        expected = cover(baseline.discover())

        recorder = RecordingCheckpoint()
        CTane(fresh_relation(), 2, checkpoint=recorder).discover()
        state = recorder.saved[snapshot_index]

        resumed_handle = RecordingCheckpoint(preload=state)
        resumed = CTane(fresh_relation(), 2, checkpoint=resumed_handle)
        assert cover(resumed.discover()) == expected
        assert resumed.resumed_level == state["size"]
        assert resumed.resume_levels_skipped == state["size"] - 1
        assert resumed_handle.cleared == 1
        # The engine does not re-save the level it resumed into.
        assert all(s["size"] > state["size"] for s in resumed_handle.saved)

    def test_resumed_counters_include_the_skipped_work(self):
        recorder = RecordingCheckpoint()
        full = CTane(fresh_relation(), 2, checkpoint=recorder)
        full.discover()
        state = recorder.saved[-1]
        resumed = CTane(
            fresh_relation(), 2, checkpoint=RecordingCheckpoint(preload=state)
        )
        resumed.discover()
        # Counters restored from the checkpoint plus the remaining levels add
        # up to exactly the undisturbed run's totals.
        assert resumed.candidates_checked == full.candidates_checked
        assert resumed.elements_generated == full.elements_generated


class TestCheckpointSerialization:
    def test_pack_unpack_round_trips_through_the_store(self, tmp_path):
        recorder = RecordingCheckpoint()
        CTane(fresh_relation(), 2, checkpoint=recorder).discover()
        state = recorder.saved[-1]
        packed = pack_ctane_checkpoint(state)
        assert packed is not None
        meta, arrays = packed
        store = CacheStore(tmp_path / "cache")
        store.put("fp", "ctane_checkpoint", {"s": 2}, meta=meta, arrays=arrays)
        entry = store.get("fp", "ctane_checkpoint", {"s": 2})
        restored = unpack_ctane_checkpoint(entry)
        assert restored["size"] == state["size"]
        assert restored["counters"] == state["counters"]
        assert cover(restored["results"]) == cover(state["results"])
        assert set(restored["level"]) == set(state["level"])
        assert restored["parent_cplus"] == state["parent_cplus"]

        baseline = cover(CTane(fresh_relation(), 2).discover())
        resumed = CTane(
            fresh_relation(), 2, checkpoint=RecordingCheckpoint(preload=restored)
        )
        assert cover(resumed.discover()) == baseline


class TestProfilerResume:
    REQUEST = DiscoveryRequest(min_support=2, algorithm="ctane")

    def expected_rules(self):
        return json.dumps(
            Profiler(fresh_relation()).run(self.REQUEST).to_json_dict()["rules"]
        )

    def test_crash_then_resume_through_the_shared_store(self, tmp_path):
        store = CacheStore(tmp_path / "shared")
        plan = FaultPlan.from_specs(["engine.level:error:after=1,times=1"])
        victim = Profiler(fresh_relation(), faults=plan)
        victim.attach_store(store)
        with pytest.raises(FaultInjected):
            victim.run(self.REQUEST)
        # The durable checkpoint was persisted before the crash point.
        assert any(
            entry.kind == "ctane_checkpoint"
            for entry in store.load_all(fresh_relation().fingerprint())
        )

        survivor = Profiler(fresh_relation())
        survivor.attach_store(store)
        result = survivor.run(self.REQUEST)
        assert json.dumps(result.to_json_dict()["rules"]) == self.expected_rules()
        extras = result.stats.extras
        assert extras["resume_levels_skipped"] >= 1
        assert extras["resumed_level"] >= 2
        # Completion cleared the durable checkpoint.
        assert not any(
            entry.kind == "ctane_checkpoint"
            for entry in store.load_all(fresh_relation().fingerprint())
        )

    def test_in_memory_resume_without_a_store(self):
        plan = FaultPlan.from_specs(["engine.level:error:after=1,times=1"])
        profiler = Profiler(fresh_relation(), faults=plan)
        with pytest.raises(FaultInjected):
            profiler.run(self.REQUEST)
        assert profiler.checkpoint_info()["entries"] == 1
        result = profiler.run(self.REQUEST)
        assert json.dumps(result.to_json_dict()["rules"]) == self.expected_rules()
        assert result.stats.extras["resume_levels_skipped"] >= 1
        assert profiler.checkpoint_info()["entries"] == 0


class TestServiceResumeCounters:
    def test_failed_over_request_reports_the_resume(self, tmp_path):
        request = DiscoveryRequest(min_support=2, algorithm="ctane")
        store_dir = tmp_path / "shared"
        plan = FaultPlan.from_specs(["engine.level:error:after=1,times=1"])
        relation = fresh_relation()

        with DiscoveryService(
            pool=SessionPool(max_sessions=2, store=CacheStore(store_dir), faults=plan),
            max_workers=2,
            faults=plan,
        ) as victim:
            with pytest.raises(FaultInjected):
                victim.run(relation, request)
            assert victim.stats()["failed"] == 1
            assert victim.stats()["faults"]["injected"] == {"engine.level:error": 1}

        with DiscoveryService(
            pool=SessionPool(max_sessions=2, store=CacheStore(store_dir)),
            max_workers=2,
        ) as survivor:
            result = survivor.run(fresh_relation(), request)
            assert result.counts()["total"] > 0
            resumes = survivor.stats()["resumes"]
            assert resumes["runs"] == 1
            assert resumes["levels_skipped"] >= 1
