"""Deterministic fault injection for the sensing→fusion→notify path.

The paper's thesis is that middleware masks unreliable location
technologies (Sections 3.2, 4.1); this package provides the systematic
robustness evidence: seeded, composable fault plans that wrap the
sensor-adapter sink hook, the pipeline flush and the ORB
transport, plus the invariants that must hold under any of them and a
chaos harness for randomized multi-object scenarios.  See
``docs/FAULTS.md`` for the injector catalogue and seeding rules.
"""

from repro.faults.harness import (
    LEVELS,
    ChaosOutcome,
    render_estimates,
    run_chaos,
    standard_plan,
)
from repro.faults.injectors import (
    ClockSkewInjector,
    CorruptInjector,
    DelayInjector,
    DropInjector,
    DuplicateInjector,
    FaultInjector,
    FlappingInjector,
    FlushFaultInjector,
    PartitionInjector,
    ReorderInjector,
    Scope,
    WalCrashInjector,
    stable_fraction,
)
from repro.faults.invariants import (
    assert_invariants,
    check_all,
    estimates_well_formed,
    fused_matches_database,
    pipeline_accounting,
    unique_reading_ids,
)
from repro.faults.plan import (
    FaultPlan,
    FaultReport,
    FaultySink,
    FaultyTransport,
)

__all__ = [
    "LEVELS",
    "ChaosOutcome",
    "ClockSkewInjector",
    "CorruptInjector",
    "DelayInjector",
    "DropInjector",
    "DuplicateInjector",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "FaultySink",
    "FaultyTransport",
    "FlappingInjector",
    "FlushFaultInjector",
    "PartitionInjector",
    "ReorderInjector",
    "Scope",
    "WalCrashInjector",
    "assert_invariants",
    "check_all",
    "estimates_well_formed",
    "fused_matches_database",
    "pipeline_accounting",
    "render_estimates",
    "run_chaos",
    "stable_fraction",
    "standard_plan",
    "unique_reading_ids",
]
