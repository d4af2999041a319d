"""Table II: 512-process binary-xor reduce, per library.

MoNA's value *emerges* from its binary-tree algorithm over the p2p
model; Cray-mpich and OpenMPI run through the black-box MPI simulator
(calibrated collective model). 32 nodes x 16 ranks, like the paper.
"""

from __future__ import annotations

from typing import Dict

from repro.mona import BXOR
from repro.mpi import MpiWorld
from repro.na import Fabric, REDUCE_CALIBRATION_512, VirtualPayload
from repro.sim import Simulation
from repro.testing import build_mona_world, run_all

__all__ = ["PAPER_TABLE2_US", "measure_mona", "run"]

SIZES = [8, 128, 2048, 16384, 32768]
PROCS = 512
PROCS_PER_NODE = 16

#: Paper Table II (per-op µs).
PAPER_TABLE2_US: Dict[str, Dict[int, float]] = {
    "craympich": dict(REDUCE_CALIBRATION_512["craympich"]),
    "openmpi": dict(REDUCE_CALIBRATION_512["openmpi"]),
    "mona": {8: 225.1, 128: 228.8, 2048: 250.9, 16384: 304.0, 32768: 527.9},
}


def _payload(nbytes: int) -> VirtualPayload:
    return VirtualPayload((max(nbytes // 8, 1),), "int64")


def _measure_mpi(profile: str, nbytes: int, ops: int) -> float:
    sim = Simulation()
    fabric = Fabric(sim)
    world = MpiWorld(sim, fabric, PROCS, profile=profile, procs_per_node=PROCS_PER_NODE)
    payload = _payload(nbytes)

    def body(c):
        for _ in range(ops):
            yield from c.reduce(payload, op=BXOR, root=0)

    start = sim.now
    run_all(sim, [body(world.comm_world(r)) for r in range(PROCS)], max_time=1e9)
    return (sim.now - start) / ops


def measure_mona(nbytes: int, ops: int = 1, algorithm: str = "binary",
                 procs: int = PROCS) -> float:
    """Per-op seconds of ``ops`` MoNA bxor reduces over ``procs`` ranks
    (16 a node) with the given tree ``algorithm``."""
    sim = Simulation()
    _, _, comms = build_mona_world(sim, procs, procs_per_node=PROCS_PER_NODE)
    payload = _payload(nbytes)

    def body(c):
        for _ in range(ops):
            yield from c.reduce(payload, op=BXOR, root=0, algorithm=algorithm)

    start = sim.now
    run_all(sim, [body(c) for c in comms], max_time=1e9)
    return (sim.now - start) / ops


def run(ops: int = 1) -> Dict[str, Dict[int, float]]:
    # ops=1 by default: consecutive tree reductions pipeline across
    # ranks (leaves start op k+1 while the root still folds op k), so a
    # timed loop understates single-op latency — which is what Table II
    # reports. One synchronized-start op measures it exactly.
    """Measured per-op reduce seconds for every (library, size)."""
    results: Dict[str, Dict[int, float]] = {"craympich": {}, "openmpi": {}, "mona": {}}
    for size in SIZES:
        results["craympich"][size] = _measure_mpi("craympich", size, ops)
        results["openmpi"][size] = _measure_mpi("openmpi", size, ops)
        results["mona"][size] = measure_mona(size, ops)
    return results
