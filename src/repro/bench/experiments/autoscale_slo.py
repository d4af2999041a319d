"""Closed-loop SLO autoscaling under deterministic load traces (DESIGN §16).

Drives the staging signatures of the paper's three applications —
Gray-Scott (fixed domain, fig. 6), Mandelbulb (blocks-per-client,
fig. 5), DWI (the fig. 1a growth curve) — through the
:mod:`repro.bench.loadtraces` shapes (bursty / diurnal / adversarial),
comparing four regimes per (app, trace):

- **slo**: the predictive :class:`~repro.core.autoscale.SloAutoscaler`;
- **reactive**: the same controller deciding with the
  :class:`~repro.core.autoscale.ThresholdBand` policy — the baseline;
- **static_small**: the initial allocation, never resized;
- **static_large**: provisioned for the worst trace point from day one.

Reported per regime: SLO misses (execute > deadline), resizes and
resize failures, *server-seconds* consumed, and the worst execute. The
claim under test: the predictive controller approaches static_large's
miss count at close to static_small's server-seconds, and beats the
reactive band on both misses (it grows before the deadline, not one
miss after) and thrash (adversarial spikes are held, not chased).

The stats backend prices execution at ``bytes / bytes_per_second`` per
server, so the SLO arithmetic is exact and runs stay fast; the
controller only ever sees the span stream, exactly as in production.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.bench.harness import ColzaExperiment
from repro.bench.loadtraces import trace
from repro.core.autoscale import SloConfig, ThresholdBand
from repro.core.pipelines import IsoSurfaceScript
from repro.na import VirtualPayload

__all__ = ["run"]

STATS = "libcolza-stats.so"
BPS = 2e6
DEADLINE = 1.2
SMALL, LARGE = 2, 8
#: ~1 MiB staged per iteration at load 1.0 -> ~0.26 s on SMALL servers.
BASE_ELEMENTS = 1 << 17
#: Fig. 1a growth across the DWI run, applied on top of the trace.
DWI_GROWTH = (5.53e8 / 4.7e7)


def _blocks(app: str, n_clients: int, load: float, iteration: int,
            iterations: int) -> List[List]:
    """One iteration's staging signature for ``app`` at ``load``."""
    if app == "dwi":
        load = load * DWI_GROWTH ** (iteration / max(1, iterations) * 0.25)
    per_client = max(1, int(BASE_ELEMENTS * load)) // n_clients
    if app == "mandelbulb":  # 4 blocks per client (fig. 5 layout)
        shape = (max(1, per_client // 4),)
        return [
            [(ci * 4 + b, VirtualPayload(shape, "float64")) for b in range(4)]
            for ci in range(n_clients)
        ]
    # grayscott / dwi: one block per client of the domain partition.
    return [
        [(ci, VirtualPayload((max(1, per_client),), "float64"))]
        for ci in range(n_clients)
    ]


def _experiment(n_servers: int, n_clients: int, seed: int) -> ColzaExperiment:
    return ColzaExperiment(
        n_servers=n_servers,
        n_clients=n_clients,
        script=IsoSurfaceScript(field="v", isovalues=[0.5]),
        library=STATS,
        pipeline_name="pipe",
        seed=seed,
        extra_config={"bytes_per_second": BPS},
    ).setup()


def _run_regime(regime: str, app: str, loads: Sequence[float], n_clients: int,
                seed: int) -> Dict[str, object]:
    n0 = LARGE if regime == "static_large" else SMALL
    exp = _experiment(n0, n_clients, seed)
    controller = None
    if regime in ("slo", "reactive"):
        band = ThresholdBand(high=DEADLINE, low=0.3) if regime == "reactive" else None
        controller = exp.autoscaler(
            # The band holds one observation after a resize, which on
            # the controller's tick clock is cooldown 2.
            SloConfig(deadline=DEADLINE, min_servers=1, max_servers=LARGE,
                      cooldown_iterations=2 if band else 1, shrink_patience=6,
                      join_deadline=8.0, leave_deadline=8.0,
                      initial_resize_cost=4.0),
            first_node=8, policy=band,
        )
    server_seconds = exp.run_controlled(
        (_blocks(app, n_clients, load, it, len(loads))
         for it, load in enumerate(loads, start=1)),
        compute_seconds=0.5, controller=controller,
    )
    executes = [t.execute for t in exp.timings]
    return {
        "slo_misses": sum(1 for e in executes if e > DEADLINE),
        "resizes": controller.resizes if controller else 0,
        "resize_failures": controller.resize_failures if controller else 0,
        "server_seconds": server_seconds,
        "worst_execute": max(executes),
        "final_servers": len(exp.deployment.live_daemons()),
        #: One letter per control step (g/s/h); empty for static regimes.
        "decisions": "".join(
            d.action[0] for d in (controller.decisions if controller else [])
        ),
    }


def run(
    apps: Sequence[str] = ("grayscott", "mandelbulb", "dwi"),
    traces: Sequence[str] = ("bursty", "diurnal", "adversarial"),
    iterations: int = 16,
    n_clients: int = 4,
    seed: int = 23,
) -> Dict[str, Dict[str, Dict[str, Dict[str, object]]]]:
    """``results[app][trace][regime]`` -> miss/resize/cost metrics."""
    results: Dict[str, Dict[str, Dict[str, Dict[str, object]]]] = {}
    for app in apps:
        results[app] = {}
        for shape in traces:
            loads = trace(shape, iterations, seed=seed,
                          **({"burst": 6.0} if shape == "bursty" else {}))
            results[app][shape] = {
                regime: _run_regime(regime, app, loads, n_clients, seed)
                for regime in ("slo", "reactive", "static_small", "static_large")
            }
    return results
