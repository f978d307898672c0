"""Chaos suite: randomized multi-object scenarios under fault plans.

Every run drives the paper's standard deployment through the ingestion
pipeline with a seeded :class:`repro.faults.FaultPlan` and asserts the
docs/FAULTS.md invariants, then proves reproducibility: the same seed
must yield a byte-identical FaultReport and final location estimates.

Seeds: the three fixed CI seeds plus any extras from the
``CHAOS_SEED`` environment variable (comma-separated), which the CI
chaos job uses to fan out.
"""

import os

import pytest

from repro.faults import LEVELS, FaultPlan, run_chaos

FIXED_SEEDS = (101, 202, 303)


def _seeds():
    extra = os.environ.get("CHAOS_SEED", "")
    env = [int(s) for s in extra.split(",") if s.strip()]
    return sorted(set(FIXED_SEEDS) | set(env))


SEEDS = _seeds()


class TestInvariantsUnderEscalation:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_invariants_hold(self, seed, level):
        out = run_chaos(seed, level=level, people=4, seconds=60)
        assert out.drained
        assert out.violations == []
        # The accounting invariant, spelled out.
        s = out.stats
        assert s.enqueued == s.fused + s.dropped + s.dead_lettered
        # Chaos must actually have happened (the plans are not inert).
        if level != "mild":
            assert out.report.total() > 0

    def test_drop_oldest_policy_also_reconciles(self):
        from repro.pipeline import OVERFLOW_DROP_OLDEST, PipelineConfig

        config = PipelineConfig(queue_capacity=4,
                                overflow_policy=OVERFLOW_DROP_OLDEST)
        out = run_chaos(101, level="severe", people=4, seconds=60,
                        config=config)
        assert out.violations == []
        s = out.stats
        assert s.enqueued == s.fused + s.dropped + s.dead_lettered


class TestReproducibility:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_byte_identical(self, seed):
        a = run_chaos(seed, level="severe", people=4, seconds=60)
        b = run_chaos(seed, level="severe", people=4, seconds=60)
        assert a.report == b.report
        assert a.report_text == b.report_text
        assert a.estimates_text == b.estimates_text
        assert a.stats.enqueued == b.stats.enqueued
        assert a.stats.fused == b.stats.fused
        assert a.stats.dead_lettered == b.stats.dead_lettered

    def test_different_seeds_diverge(self):
        a = run_chaos(101, level="severe", people=4, seconds=60)
        b = run_chaos(202, level="severe", people=4, seconds=60)
        # Identical injection traffic for different seeds would mean
        # the plan is not actually consuming its seed.
        assert (a.report_text != b.report_text
                or a.estimates_text != b.estimates_text)


class TestCoverage:
    def test_severe_plan_exercises_at_least_six_injector_types(self):
        fired = set()
        for seed in SEEDS:
            out = run_chaos(seed, level="severe", people=5, seconds=90)
            assert out.violations == []
            fired |= {name.split("-")[0] for name in
                      out.report.injectors_fired()}
        # drop / duplicate / delay / flapping / clock-skew / reorder /
        # corrupt / flush-fault minus whatever a particular traffic
        # pattern left cold — at least six distinct types must fire.
        assert len(fired) >= 6, sorted(fired)

    def test_flapping_and_skew_fire_with_targeted_traffic(self):
        """Scoped injectors verifiably bite when their sensors report."""
        from repro.sim import Scenario

        scenario = Scenario(seed=11).standard_deployment()
        plan = FaultPlan(11, clock=scenario.clock)
        plan.flapping(4.0, 4.0, sensors=["RF-12"])
        plan.clock_skew(-2.0, sensors=["Ubi-18"])
        pipeline = scenario.use_pipeline(fault_plan=plan)
        try:
            adapters = {a.adapter_id: a
                        for a in scenario.deployment.adapters()}
            for t in range(16):
                scenario.clock.advance(1.0)
                adapters["RF-12"].badge_sighting("alice", float(t))
                from repro.geometry import Point
                adapters["Ubi-18"].tag_sighting("alice", Point(150, 20),
                                                float(t))
            plan.flush()
            assert pipeline.drain(timeout=30.0)
        finally:
            pipeline.stop()
        counts = plan.report().as_dict()
        assert counts["flapping"].get("suppressed", 0) > 0
        assert counts["clock-skew"].get("skewed", 0) == 16


@pytest.mark.slow
class TestRandomizedSweep:
    """Long randomized sweep — excluded from tier-1 (needs --runslow)."""

    def test_many_seeds_never_violate_invariants(self):
        for seed in range(9000, 9012):
            out = run_chaos(seed, level="severe", people=4, seconds=60)
            assert out.violations == [], (seed, out.violations)
            assert out.drained, seed

    def test_custom_plans_with_windows_and_scopes(self):
        from repro.sim import Scenario

        for seed in (5, 6, 7):
            scenario = Scenario(seed=seed).standard_deployment()
            scenario.add_people(3)
            plan = FaultPlan(seed * 31 + 1, clock=scenario.clock)
            plan.drop(0.3, window=(5.0, 20.0))
            plan.duplicate(0.2, copies=2, objects=["person-1"])
            plan.delay(0.2, 3.0, sensors=["RF-12", "RF-13", "RF-14"])
            plan.reorder(3)
            plan.flush_faults(0.2)
            pipeline = scenario.use_pipeline(fault_plan=plan)
            try:
                scenario.run(45)
                plan.flush()
                assert pipeline.drain(timeout=60.0)
                stats = pipeline.stats()
                assert stats.enqueued == (stats.fused + stats.dropped
                                          + stats.dead_lettered)
            finally:
                pipeline.stop()
