"""Colzacheck: systematic model checking of the staging protocols.

A stateless, DPOR-style checker (in the Coyote/Shuttle tradition) for
the 2PC activation, SWIM-recovery, replication, and tenancy protocols.
It drives a scenario's same-timestamp choices through one controller
with two strategies: a DFS that *enumerates* interleavings around the
racy window, pruning provably equivalent ones using SimTSan access
footprints as the independence relation, and seeded random walks that
*sample* whole runs. Either way a violation ends in a minimized,
replayable ``.sched`` counterexample.

Layers:

- :mod:`~repro.analysis.mcheck.driver` — the exploration driver
  (choice recording, walk draws, access footprints);
- :mod:`~repro.analysis.mcheck.explore` — DFS over choice prefixes
  with sleep-set-style pruning, trace dedup, budgets, and shrinking;
  random walks;
- :mod:`~repro.analysis.mcheck.sched` — the counterexample file
  format and replay;
- :mod:`~repro.analysis.mcheck.scenarios` — the protocol windows under
  test.

CLI: ``python -m repro.analysis mcheck --scenario 2pc_activation``
(add ``--walk 5`` to sample five walks instead); replay a counterexample with ``python -m repro.analysis replay
<file.sched>``.
"""

from repro.analysis.mcheck.driver import ScheduleController, fingerprint
from repro.analysis.mcheck.explore import (
    ExploreReport,
    explore,
    random_walk,
    run_schedule,
)
from repro.analysis.mcheck.sched import ReplayResult, Schedule, replay
from repro.analysis.mcheck.scenarios import (
    MCHECK_SCENARIOS,
    McheckOutcome,
    scenario_names,
)

__all__ = [
    "ExploreReport",
    "MCHECK_SCENARIOS",
    "McheckOutcome",
    "ReplayResult",
    "Schedule",
    "ScheduleController",
    "explore",
    "fingerprint",
    "random_walk",
    "replay",
    "run_schedule",
    "scenario_names",
]
