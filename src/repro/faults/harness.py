"""The chaos harness: scenario + fault plan + invariant sweep in a box.

``run_chaos`` drives a full simulated deployment (the paper's standard
four-technology floor) through the ingestion pipeline under a fault
plan, force-flushes held readings, drains, snapshots stats, renders
every final location estimate into a canonical text form, and runs the
invariant checker.  Tests assert on the returned
:class:`ChaosOutcome`; running the same seed twice must produce
byte-identical ``report_text`` and ``estimates_text``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import FaultInjectionError, UnknownObjectError
from repro.faults.invariants import check_all
from repro.faults.plan import FaultPlan, FaultReport

LEVELS = ("mild", "moderate", "severe")


def standard_plan(seed: int, clock, level: str = "severe") -> FaultPlan:
    """An escalating preset: each level adds failure modes.

    * ``mild`` — lossy sensing: drops and duplicate deliveries.
    * ``moderate`` — plus delivery delay, a flapping RF station and a
      skewed Ubisense host clock.
    * ``severe`` — plus reordering, coordinate corruption, a windowed
      drop burst and pipeline flush faults.
    """
    if level not in LEVELS:
        raise FaultInjectionError(
            f"unknown chaos level {level!r}; expected one of {LEVELS}")
    plan = FaultPlan(seed, clock=clock)
    plan.drop(0.05).duplicate(0.05)
    if level in ("moderate", "severe"):
        plan.delay(0.10, 2.0)
        plan.flapping(20.0, 10.0, sensors=["RF-12", "RF-13"])
        plan.clock_skew(-1.0, sensors=["Ubi-18"])
    if level == "severe":
        plan.reorder(4)
        plan.corrupt(0.08, 4.0)
        plan.drop(0.5, window=(10.0, 25.0), name="drop-burst")
        plan.flush_faults(0.08)
    return plan


@dataclass
class ChaosOutcome:
    """Everything a chaos test asserts on, in reproducible form."""

    seed: int
    level: str
    drained: bool
    report: FaultReport
    report_text: str
    estimates_text: str
    violations: List[str]
    stats: object  # PipelineStats snapshot

    @property
    def healthy(self) -> bool:
        return self.drained and not self.violations


def render_estimates(service, now: float) -> str:
    """Every tracked object's final estimate as canonical text.

    Uses ``repr`` for floats so two runs agree only when the numbers
    are bit-identical — the strongest cheap reproducibility oracle.
    """
    lines = []
    for object_id in service.db.tracked_objects():
        try:
            e = service.locate(object_id, now=now)
        except UnknownObjectError:
            lines.append(f"{object_id}: unknown")
            continue
        rect = (f"({e.rect.min_x!r}, {e.rect.min_y!r}, "
                f"{e.rect.max_x!r}, {e.rect.max_y!r})")
        lines.append(
            f"{object_id}: rect={rect} p={e.probability!r} "
            f"posterior={e.posterior!r} bucket={e.bucket.name} "
            f"sources={','.join(e.sources)} symbolic={e.symbolic} "
            f"moving={e.moving}")
    return "\n".join(lines)


def run_chaos(seed: int, level: str = "severe", people: int = 4,
              seconds: float = 60.0, dt: float = 1.0,
              plan: Optional[FaultPlan] = None,
              config=None) -> ChaosOutcome:
    """One full chaos run over the standard deployment.

    Args:
        seed: drives movement, sensing *and* the fault plan.
        level: escalation preset (ignored when ``plan`` is given).
        people: simulated population size.
        seconds / dt: virtual run length and tick.
        plan: a pre-built plan (must share the scenario's clock usage
            semantics — built with the returned scenario's clock).
        config: optional PipelineConfig override.
    """
    from repro.sim import Scenario

    scenario = Scenario(seed=seed).standard_deployment()
    scenario.add_people(people)
    if plan is None:
        plan = standard_plan(seed, scenario.clock, level)
    pipeline = scenario.use_pipeline(config=config, fault_plan=plan)
    try:
        scenario.run(seconds, dt)  # each step pumps the plan
        plan.flush()
        drained = pipeline.drain(timeout=60.0)
        stats = pipeline.stats()
        now = scenario.now
        estimates_text = render_estimates(scenario.service, now)
        violations = check_all(scenario.service, stats=stats, now=now,
                               pipeline_only=True)
        if not drained:
            violations.append("pipeline failed to drain")
    finally:
        pipeline.stop()
    report = plan.report()
    return ChaosOutcome(
        seed=seed, level=level, drained=drained, report=report,
        report_text=report.as_text(), estimates_text=estimates_text,
        violations=violations, stats=stats)
