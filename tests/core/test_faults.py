"""Unit tests for the deterministic fault-injection layer
(``repro.core.faults``): spec validation, per-visit scheduling
(``after``/``times``/``probability``), seeded determinism, latency
sleeps, torn-write directives, and the diagnostics surface."""

from __future__ import annotations

import pytest

from repro.core.faults import KINDS, SITES, FaultPlan, FaultSpec, TornWrite
from repro.errors import FaultInjectedError, IVMError


class TestFaultSpecValidation:
    def test_known_kinds_and_sites_are_stable(self):
        assert set(KINDS) == {"error", "latency", "torn"}
        assert set(SITES) == {
            "wal.append",
            "checkpoint.write",
            "fused.fold",
            "queue.enqueue",
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="explode"),
            dict(probability=1.5),
            dict(probability=-0.1),
            dict(times=-1),
            dict(after=-2),
            dict(latency=-0.5),
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(IVMError):
            FaultSpec(site="wal.append", **kwargs)


class TestErrorFaults:
    def test_error_fault_raises_typed_exception_with_detail(self):
        plan = FaultPlan(seed=1, specs=[FaultSpec(site="wal.append")])
        with pytest.raises(FaultInjectedError) as excinfo:
            plan.check("wal.append", table="t")
        assert excinfo.value.site == "wal.append"
        assert "table=t" in str(excinfo.value)

    def test_unmatched_site_is_a_no_op(self):
        plan = FaultPlan(seed=1, specs=[FaultSpec(site="wal.append")])
        assert plan.check("checkpoint.write", seq=1) is None
        assert plan.fired() == 0


class TestScheduling:
    def test_after_skips_early_visits(self):
        plan = FaultPlan(
            seed=1, specs=[FaultSpec(site="queue.enqueue", after=2)]
        )
        assert plan.check("queue.enqueue") is None
        assert plan.check("queue.enqueue") is None
        with pytest.raises(FaultInjectedError):
            plan.check("queue.enqueue")

    def test_times_caps_total_firings(self):
        plan = FaultPlan(
            seed=1, specs=[FaultSpec(site="wal.append", times=2)]
        )
        for _ in range(2):
            with pytest.raises(FaultInjectedError):
                plan.check("wal.append")
        for _ in range(10):
            assert plan.check("wal.append") is None
        assert plan.fired("wal.append") == 2
        assert plan.visits("wal.append") == 12

    def test_times_zero_never_fires(self):
        plan = FaultPlan(
            seed=1, specs=[FaultSpec(site="wal.append", times=0)]
        )
        for _ in range(5):
            assert plan.check("wal.append") is None
        assert plan.fired() == 0

    def test_first_match_wins_per_visit(self):
        plan = FaultPlan(
            seed=1,
            specs=[
                FaultSpec(site="wal.append", kind="latency", latency=0.0),
                FaultSpec(site="wal.append", kind="error"),
            ],
        )
        # The latency spec matches first on every visit, so the error
        # spec never fires — but both specs see every visit.
        for _ in range(3):
            assert plan.check("wal.append") is None
        snap = plan.snapshot()
        assert snap[0]["fired"] == 3
        assert snap[1]["fired"] == 0
        assert snap[0]["visits"] == snap[1]["visits"] == 3

    def test_probability_schedule_is_deterministic(self):
        def firing_pattern():
            plan = FaultPlan(
                seed=42,
                specs=[FaultSpec(site="queue.enqueue", probability=0.3)],
            )
            pattern = []
            for _ in range(50):
                try:
                    plan.check("queue.enqueue")
                    pattern.append(0)
                except FaultInjectedError:
                    pattern.append(1)
            return pattern

        first, second = firing_pattern(), firing_pattern()
        assert first == second
        assert 0 < sum(first) < 50  # actually probabilistic

    def test_different_seeds_give_different_schedules(self):
        patterns = []
        for seed in (1, 2):
            plan = FaultPlan(
                seed=seed,
                specs=[FaultSpec(site="queue.enqueue", probability=0.5)],
            )
            pattern = []
            for _ in range(64):
                try:
                    plan.check("queue.enqueue")
                    pattern.append(0)
                except FaultInjectedError:
                    pattern.append(1)
            patterns.append(pattern)
        assert patterns[0] != patterns[1]

    def test_other_site_visits_do_not_perturb_the_schedule(self):
        def pattern(interleave):
            plan = FaultPlan(
                seed=7,
                specs=[
                    FaultSpec(site="wal.append", probability=0.4),
                    FaultSpec(site="queue.enqueue", probability=0.4),
                ],
            )
            out = []
            for i in range(40):
                if interleave and i % 2:
                    try:
                        plan.check("queue.enqueue")
                    except FaultInjectedError:
                        pass
                try:
                    plan.check("wal.append")
                    out.append(0)
                except FaultInjectedError:
                    out.append(1)
            return out

        assert pattern(False) == pattern(True)


class TestLatencyFaults:
    def test_latency_sleeps_and_returns_none(self):
        plan = FaultPlan(
            seed=1,
            specs=[FaultSpec(site="fused.fold", kind="latency",
                             latency=0.25, times=1)],
        )
        slept = []
        plan._sleep = slept.append
        assert plan.check("fused.fold", view="v") is None
        assert slept == [0.25]
        assert plan.check("fused.fold", view="v") is None  # times=1
        assert slept == [0.25]


class TestTornWrites:
    def test_torn_fault_returns_directive(self):
        plan = FaultPlan(
            seed=1,
            specs=[FaultSpec(site="wal.append", kind="torn", times=1)],
        )
        torn = plan.check("wal.append", table="t")
        assert isinstance(torn, TornWrite)
        assert torn.site == "wal.append"
        assert isinstance(torn.error, FaultInjectedError)
        assert plan.check("wal.append", table="t") is None

    def test_cut_keeps_a_strict_prefix(self):
        torn = TornWrite("wal.append", fraction=0.5)
        payload = bytes(range(100))
        cut = torn.cut(payload)
        assert cut == payload[:50]
        # Tiny payloads still lose bytes... but never go below 1 byte.
        assert torn.cut(b"ab") == b"a"
        assert torn.cut(b"x") == b"x"[:1]


class TestDiagnostics:
    def test_fired_and_visits_filter_by_site(self):
        plan = FaultPlan(
            seed=1,
            specs=[
                FaultSpec(site="wal.append", times=1),
                FaultSpec(site="queue.enqueue", times=0),
            ],
        )
        with pytest.raises(FaultInjectedError):
            plan.check("wal.append")
        plan.check("wal.append")
        plan.check("queue.enqueue")
        assert plan.fired("wal.append") == 1
        assert plan.fired("queue.enqueue") == 0
        assert plan.fired() == 1
        assert plan.visits("wal.append") == 2
        assert plan.visits("queue.enqueue") == 1
        assert plan.visits() == 3

    def test_snapshot_lists_every_spec(self):
        plan = FaultPlan(
            seed=1,
            specs=[
                FaultSpec(site="wal.append", kind="torn", times=1),
                FaultSpec(site="fused.fold", kind="latency", latency=0.1),
            ],
        )
        snap = plan.snapshot()
        assert [entry["site"] for entry in snap] == [
            "wal.append", "fused.fold",
        ]
        assert [entry["kind"] for entry in snap] == ["torn", "latency"]

    def test_add_is_chainable(self):
        plan = FaultPlan(seed=3).add(FaultSpec(site="wal.append")).add(
            FaultSpec(site="queue.enqueue")
        )
        assert len(plan.snapshot()) == 2
