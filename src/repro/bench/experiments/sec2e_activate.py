"""§II-E: overhead of ``activate`` with and without a group change.

The paper: "no overhead if the group hasn't changed when activate is
called, and an overhead in the order of a second when the group did
change" (dependent on SSG's gossip parameters). We measure the
client-observed activate duration in five situations:

- steady group (no change since last activate);
- right after a join has fully propagated (client view stale);
- immediately after the join, while gossip is still propagating —
  activate's 2PC must retry until all members agree;
- right after a graceful leave has fully propagated (the client's
  view still lists the leaver): the survivors' NO decides the first
  round, nobody waits for the server that said goodbye;
- immediately after the leave request, while it is still propagating.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.harness import ColzaExperiment
from repro.core import ColzaAdmin
from repro.core.pipelines import IsoSurfaceScript
from repro.na import VirtualPayload
from repro.ssg import SwimConfig
from repro.testing import drive, run_until

__all__ = ["run"]

BLOCK = VirtualPayload((32, 32, 32), "int32")


def run(n_servers: int = 4, seed: int = 3, swim_period: float = 0.5) -> Dict[str, float]:
    exp = ColzaExperiment(
        n_servers=n_servers,
        n_clients=2,
        script=IsoSurfaceScript(field="iterations", isovalues=[4.0]),
        controller="mona",
        swim_period=swim_period,
        seed=seed,
        nodes=64,
        client_nodes_offset=30,
    ).setup()
    sim = exp.sim
    blocks = [[(0, BLOCK)], [(1, BLOCK)]]

    exp.run_iteration(1, blocks)  # warm-up (includes init)
    exp.run_iteration(2, blocks)
    unchanged = exp.timings[-1].activate

    # Join fully propagated before the next activate.
    joined = drive(sim, exp.add_server_with_pipeline(node_index=n_servers), max_time=600)
    run_until(sim, exp.deployment.converged, max_time=600)
    exp.run_iteration(3, blocks)
    changed_settled = exp.timings[-1].activate

    # Join still propagating: activate immediately after the daemon is up.
    racer = drive(sim, exp.add_server_with_pipeline(node_index=n_servers + 1), max_time=600)
    exp.run_iteration(4, blocks)
    changed_racing = exp.timings[-1].activate

    # Graceful leave fully propagated before the next activate.
    admin = ColzaAdmin(exp.client_margos[0])
    run_until(sim, exp.deployment.converged, max_time=600)
    drive(sim, admin.request_leave(racer.address), max_time=600)
    run_until(sim, lambda: not racer.running and exp.deployment.converged(), max_time=600)
    exp.run_iteration(5, blocks)
    shrunk_settled = exp.timings[-1].activate
    shrunk_settled_rounds = list(sim.trace.find("colza.activate", iteration=5))[-1].tags["attempts"]

    # Leave still propagating: activate right after the request.
    drive(sim, admin.request_leave(joined.address), max_time=600)
    exp.run_iteration(6, blocks)
    shrunk_racing = exp.timings[-1].activate

    return {
        "unchanged": unchanged,
        "changed_settled": changed_settled,
        "changed_racing": changed_racing,
        "shrunk_settled": shrunk_settled,
        "shrunk_settled_rounds": shrunk_settled_rounds,
        "shrunk_racing": shrunk_racing,
    }
