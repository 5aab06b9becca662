"""Unit tests of the fault-injection harness itself.

The whole chaos suite leans on :class:`~repro.serve.faults.FaultPlan`
replaying identically from a logged seed, so this file pins that contract
down first: spec round trips, rule arming (``after``/``times``/``p``),
each failure kind's surface, determinism across plan instances, and the
CLI/env resolution order.
"""

import importlib

import pytest

from repro import obs
from repro.serve.faults import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    parse_fault_spec,
    plan_from_env,
    resolve_fault_plan,
)


class TestSpecParsing:
    def test_round_trip(self):
        spec = "store.put:torn_write:p=0.5,times=3,after=2,fraction=0.25"
        rule = parse_fault_spec(spec)
        assert rule.point == "store.put"
        assert rule.kind == "torn_write"
        assert rule.probability == 0.5
        assert rule.times == 3
        assert rule.after == 2
        assert rule.fraction == 0.25
        assert parse_fault_spec(rule.spec()) == rule

    def test_latency_seconds(self):
        rule = parse_fault_spec("fleet.send:latency:seconds=0.25")
        assert rule.kind == "latency"
        assert rule.seconds == 0.25

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "no-kind",
            "point:unknown_kind",
            "point:error:p=2.0",
            "point:error:times=-1",
            "point:error:nonsense=1",
            "point:error:p",
        ],
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


class TestRuleArming:
    def test_error_raises_fault_injected(self):
        plan = FaultPlan.from_specs(["svc.x:error"])
        with pytest.raises(FaultInjected):
            plan.visit("svc.x")

    def test_reset_raises_connection_reset(self):
        plan = FaultPlan.from_specs(["svc.x:reset"])
        with pytest.raises(ConnectionResetError):
            plan.visit("svc.x")

    def test_torn_write_returns_fraction(self):
        plan = FaultPlan.from_specs(["svc.x:torn_write:fraction=0.3"])
        assert plan.visit("svc.x") == 0.3

    def test_latency_sleeps_in_place(self):
        slept = []
        plan = FaultPlan.from_specs(
            ["svc.x:latency:seconds=0.7"], sleep=slept.append
        )
        assert plan.visit("svc.x") is None
        assert slept == [0.7]

    def test_kill_invokes_the_kill_hook(self, capsys):
        killed = []
        plan = FaultPlan.from_specs(
            ["svc.x:kill"], kill=lambda: killed.append(True)
        )
        plan.visit("svc.x")
        assert killed == [True]
        assert "killing process" in capsys.readouterr().err

    def test_point_patterns_fnmatch(self):
        plan = FaultPlan.from_specs(["store.*:error"])
        with pytest.raises(FaultInjected):
            plan.visit("store.put")
        assert plan.visit("fleet.send") is None

    def test_after_skips_then_times_caps(self):
        plan = FaultPlan.from_specs(["svc.x:error:after=2,times=1"])
        assert plan.visit("svc.x") is None
        assert plan.visit("svc.x") is None
        with pytest.raises(FaultInjected):
            plan.visit("svc.x")
        # The rule is spent: visits flow freely again.
        assert plan.visit("svc.x") is None
        assert plan.injected() == {("svc.x", "error"): 1}

    def test_first_matching_rule_wins(self):
        plan = FaultPlan.from_specs(
            ["svc.x:torn_write:fraction=0.1", "svc.*:error"]
        )
        assert plan.visit("svc.x") == 0.1
        with pytest.raises(FaultInjected):
            plan.visit("svc.y")

    def test_unmatched_points_cost_nothing(self):
        plan = FaultPlan.from_specs(["other.point:error"])
        for _ in range(100):
            assert plan.visit("svc.x") is None
        assert plan.injected_total() == 0


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        specs = ["svc.x:error:p=0.4"]

        def schedule(seed):
            plan = FaultPlan.from_specs(specs, seed=seed)
            fired = []
            for _ in range(200):
                try:
                    plan.visit("svc.x")
                    fired.append(False)
                except FaultInjected:
                    fired.append(True)
            return fired

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)
        assert any(schedule(7))
        assert not all(schedule(7))

    def test_describe_logs_seed_rules_and_counts(self):
        plan = FaultPlan.from_specs(["svc.x:error:times=1"], seed=42)
        with pytest.raises(FaultInjected):
            plan.visit("svc.x")
        document = plan.describe()
        assert document["seed"] == 42
        assert document["rules"] == ["svc.x:error:p=1,times=1"]
        assert document["injected"] == {"svc.x:error": 1}


class TestResolution:
    def test_env_plan_absent_when_unset(self):
        assert plan_from_env({}) is None
        assert plan_from_env({"REPRO_FAULTS": "  "}) is None

    def test_env_plan_parses_specs_and_seed(self):
        plan = plan_from_env(
            {"REPRO_FAULTS": "a.b:error; c.d:latency", "REPRO_FAULT_SEED": "9"}
        )
        assert plan is not None
        assert plan.seed == 9
        assert [rule.point for rule in plan.rules()] == ["a.b", "c.d"]

    def test_resolve_merges_cli_before_env(self):
        plan = resolve_fault_plan(
            ["cli.point:error"],
            seed=None,
            environ={"REPRO_FAULTS": "env.point:error", "REPRO_FAULT_SEED": "3"},
        )
        assert plan is not None
        assert [rule.point for rule in plan.rules()] == ["cli.point", "env.point"]
        assert plan.seed == 3

    def test_explicit_seed_beats_env(self):
        plan = resolve_fault_plan(
            ["a.b:error"], seed=11, environ={"REPRO_FAULT_SEED": "3"}
        )
        assert plan is not None and plan.seed == 11

    def test_resolve_none_without_rules(self):
        assert resolve_fault_plan([], seed=5, environ={}) is None

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("repro.serve.http.cli", []),
            ("repro.serve.fleet.cli", ["--worker", "http://127.0.0.1:1"]),
        ],
    )
    def test_bad_cli_spec_is_a_usage_error(self, command, argv, capsys):
        main = importlib.import_module(command).main
        try:
            with pytest.raises(SystemExit) as exited:
                main(argv + ["--fault", "not-a-spec"])
        finally:
            obs.disable()  # the command configured the process tracer
        assert exited.value.code == 2
        assert "bad fault spec" in capsys.readouterr().err
