"""Ablation: automatic resizing vs static provisioning (future work 2).

Runs the Fig. 10-style growing DWI workload under three regimes:

- **autoscaled**: start small; the elasticity controller, deciding
  with the :class:`~repro.core.autoscale.ThresholdBand` policy, grows
  the staging area whenever execute exceeds its target band;
- **static small**: the initial allocation, never resized;
- **static large**: provisioned for the final iteration from day one.

Reported per regime: per-iteration execute times, the worst steady
iteration, and *server-seconds* consumed (the resource-efficiency
argument for elasticity: bounded times near the small allocation's
cost, not the large one's).
"""

from __future__ import annotations

from typing import Dict

from repro.apps import DWIDataset, DWIProxyRank
from repro.bench.harness import ColzaExperiment
from repro.core.autoscale import SloConfig, ThresholdBand
from repro.core.pipelines import DWIVolumeScript

__all__ = ["run"]

N_CLIENTS = 16
ITERATIONS = 24
SMALL, LARGE = 8, 64
PROCS_PER_NODE = 8
#: The simulation computes this long between in-situ iterations — idle
#: staging servers burn allocation during it (the waste static-large
#: provisioning pays for its low render times).
APP_COMPUTE_S = 20.0


def _experiment(n_servers: int, seed: int) -> ColzaExperiment:
    return ColzaExperiment(
        n_servers=n_servers,
        n_clients=N_CLIENTS,
        script=DWIVolumeScript(),
        server_procs_per_node=PROCS_PER_NODE,
        clients_per_node=16,
        client_nodes_offset=16,
        swim_period=0.5,
        seed=seed,
        nodes=64,
    ).setup()


def _run(regime: str, seed: int, iterations: int) -> Dict[str, object]:
    dataset = DWIDataset(iterations=30)
    proxies = [
        DWIProxyRank(dataset, rank=r, nranks=N_CLIENTS, virtual=True)
        for r in range(N_CLIENTS)
    ]
    n0 = LARGE if regime == "static_large" else SMALL
    exp = _experiment(n0, seed)
    controller = None
    if regime == "autoscaled":
        controller = exp.autoscaler(
            # Hold one observation after a resize (the join-init spike):
            # cooldown 2 on the controller's tick clock.
            SloConfig(max_servers=LARGE, cooldown_iterations=2),
            first_node=SMALL // PROCS_PER_NODE,
            policy=ThresholdBand(high=12.0, low=1.0, grow_step=PROCS_PER_NODE),
        )
    server_seconds = exp.run_controlled(
        ([list(p.read_iteration(it)) for p in proxies]
         for it in range(1, iterations + 1)),
        compute_seconds=APP_COMPUTE_S, controller=controller,
    )
    return {
        "times": [t.execute for t in exp.timings],
        "server_seconds": server_seconds,
        "final_servers": len(exp.deployment.live_daemons()),
    }


def run(seed: int = 17, iterations: int = ITERATIONS) -> Dict[str, Dict[str, object]]:
    return {
        "autoscaled": _run("autoscaled", seed, iterations),
        "static_small": _run("static_small", seed + 1, iterations),
        "static_large": _run("static_large", seed + 2, iterations),
    }
