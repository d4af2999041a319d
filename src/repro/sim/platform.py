"""The cluster model: nodes, process placement, and launch latencies.

Models a Cori-Haswell-like machine: ``nodes`` × ``cores_per_node``
cores, a dragonfly-ish network (we model it as a flat fabric with a
per-transport cost model — see :mod:`repro.na.costmodel`), node-local
shared memory, and a batch launcher (``srun``) whose start-up latency is
what the static-vs-elastic resizing experiment (Fig. 4) measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.kernel import Simulation
from repro.sim.resources import Resource

__all__ = ["Cluster", "LaunchModel", "Node", "PlatformParams"]


@dataclass
class PlatformParams:
    """Tunable constants of the machine model.

    Launch-latency defaults are calibrated against Fig. 4 of the paper:
    a full static restart of an ``n``-process staging area takes 5–40 s
    (mean ≈ 16 s), while launching one extra daemon for an elastic join
    is stable around 3.5 s (SSG propagation adds ~1.5 s on top, modeled
    in :mod:`repro.ssg`).
    """

    cores_per_node: int = 32
    mem_per_node_gb: float = 128.0

    # srun model: delay = base + per_proc * n + lognormal(mu, sigma)
    srun_base_s: float = 4.0
    srun_per_proc_s: float = 0.02
    srun_tail_mu: float = 2.2
    srun_tail_sigma: float = 0.55

    # Launching a single additional daemon (elastic join) is far more
    # predictable: no gang scheduling of a full job step.
    srun_single_base_s: float = 2.5
    srun_single_tail_mu: float = 0.0
    srun_single_tail_sigma: float = 0.30

    # Per-process service bring-up (margo init, library loading).
    service_init_s: float = 0.5
    # Tear-down of a running staging area on SIGKILL.
    kill_s: float = 0.2


@dataclass
class Node:
    """A compute node; cores are a shared FIFO resource."""

    index: int
    cores: Resource = field(repr=False, default=None)  # type: ignore[assignment]


class Cluster:
    """Node registry + process placement + the launch model."""

    def __init__(
        self,
        sim: Simulation,
        nodes: int = 16,
        params: Optional[PlatformParams] = None,
    ):
        if nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.sim = sim
        self.params = params or PlatformParams()
        self.nodes: List[Node] = [
            Node(i, Resource(sim, self.params.cores_per_node, name=f"nid{i:05d}.cores"))
            for i in range(nodes)
        ]
        self.launcher = LaunchModel(sim, self.params)

    # ------------------------------------------------------------------

    def place(self, proc_name: str, node_index: int) -> Node:
        """The node a named process is launched on (range-checked)."""
        if not 0 <= node_index < len(self.nodes):
            raise ValueError(f"node {node_index} out of range for {proc_name!r}")
        return self.nodes[node_index]

    def __len__(self) -> int:
        return len(self.nodes)


class LaunchModel:
    """Batch-launcher latency model (``srun`` on Cori)."""

    def __init__(self, sim: Simulation, params: PlatformParams):
        self.sim = sim
        self.params = params

    def srun_delay(self, nprocs: int) -> float:
        """Latency to gang-launch a job step of ``nprocs`` processes."""
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        p = self.params
        rng = self.sim.rng.stream("platform.srun")
        if nprocs == 1:
            tail = rng.lognormal(p.srun_single_tail_mu, p.srun_single_tail_sigma)
            return p.srun_single_base_s + tail
        tail = rng.lognormal(p.srun_tail_mu, p.srun_tail_sigma)
        return p.srun_base_s + p.srun_per_proc_s * nprocs + tail

    def service_init_delay(self) -> float:
        """Per-process service bring-up time (margo init, dlopen, ...)."""
        rng = self.sim.rng.stream("platform.init")
        return self.params.service_init_s * float(rng.uniform(0.9, 1.1))

    def kill_delay(self) -> float:
        """Time for SIGKILL + job-step teardown."""
        return self.params.kill_s
