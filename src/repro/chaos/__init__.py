"""Deterministic chaos engineering for the Colza reproduction.

Seeded fault injection (:mod:`repro.chaos.faults`,
:mod:`repro.chaos.engine`), invariant monitoring
(:mod:`repro.chaos.invariants`), and an end-to-end scenario fleet
(:mod:`repro.chaos.scenarios`). See DESIGN.md §7 for the taxonomy and
the determinism guarantee.
"""

from repro.chaos.engine import ChaosEngine
from repro.chaos.faults import (
    CrashFault,
    FaultPlan,
    GossipSuppression,
    HangFault,
    LinkFault,
    Partition,
    RdmaFault,
    SlowFault,
    name_of,
)
from repro.chaos.invariants import InvariantMonitor
from repro.chaos.scenarios import (
    SCENARIOS,
    ChaosContext,
    Scenario,
    ScenarioResult,
    build_stack,
    run_scenario,
    scenario_names,
)

__all__ = [
    "SCENARIOS",
    "ChaosContext",
    "ChaosEngine",
    "CrashFault",
    "FaultPlan",
    "GossipSuppression",
    "HangFault",
    "InvariantMonitor",
    "LinkFault",
    "Partition",
    "RdmaFault",
    "Scenario",
    "ScenarioResult",
    "SlowFault",
    "build_stack",
    "name_of",
    "run_scenario",
    "scenario_names",
]
