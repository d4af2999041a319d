"""Test/benchmark utilities shared by the suite and by downstream users.

Provides condition-driven simulation stepping and small builders for
common topologies (a fabric full of Margo instances, an SSG group),
so tests and benchmarks don't re-implement bring-up choreography.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Sequence, Tuple

from repro.margo import MargoInstance
from repro.na import Fabric, get_cost_model
from repro.sim import Simulation
from repro.sim.platform import Cluster
from repro.ssg import GroupFile, SSGAgent, SwimConfig

__all__ = [
    "build_margo_ring",
    "build_mona_world",
    "build_ssg_group",
    "drive",
    "run_all",
    "run_until",
]


def run_until(
    sim: Simulation,
    predicate: Callable[[], bool],
    step: float = 0.1,
    max_time: float = 600.0,
) -> float:
    """Advance the simulation until ``predicate()`` holds.

    Returns the simulated time at which it was first observed to hold.
    Raises ``TimeoutError`` once more than ``max_time`` simulated
    seconds have elapsed *since the call*.

    The predicate is checked every ``step`` seconds of simulated time,
    except inside the final window before the deadline, which is
    stepped event by event: a condition that first holds between the
    last coarse checkpoint and the deadline is still observed rather
    than misreported as a timeout.
    """
    deadline = sim.now + max_time
    while True:
        if predicate():
            return sim.now
        if sim.now >= deadline:
            raise TimeoutError(
                f"condition not reached by t={sim.now:.2f}s "
                f"({max_time}s after the call)"
            )
        window_end = sim.now + step
        if window_end >= deadline:
            # Final window: advance one event at a time so the predicate
            # is re-evaluated at every state change up to the deadline.
            nxt = sim.peek()
            if nxt is None or nxt > deadline:
                sim.run(until=deadline)
            else:
                sim.step()
        else:
            sim.run(until=window_end)


def drive(sim: Simulation, gen: Generator, max_time: float = 600.0):
    """Spawn ``gen``, run the simulation until it completes, return its value."""
    task = sim.spawn(gen, name="drive")
    run_until(sim, lambda: task.finished, max_time=max_time)
    return task.done.value


def build_margo_ring(
    sim: Simulation,
    count: int,
    transport: str = "mona",
    procs_per_node: int = 1,
    name_prefix: str = "proc",
) -> Tuple[Fabric, List[MargoInstance]]:
    """A fabric plus ``count`` Margo instances, packed onto nodes."""
    fabric = Fabric(sim)
    model = get_cost_model(transport)
    instances = [
        MargoInstance(sim, fabric, f"{name_prefix}-{i}", i // procs_per_node, model)
        for i in range(count)
    ]
    return fabric, instances


def build_mona_world(
    sim: Simulation,
    count: int,
    procs_per_node: int = 1,
    name_prefix: str = "rank",
):
    """A fabric, ``count`` MoNA instances, and one communicator each.

    Returns ``(fabric, instances, comms)`` where ``comms[i]`` is rank
    ``i``'s view of a communicator spanning all instances.
    """
    from repro.mona import MonaInstance

    fabric = Fabric(sim)
    instances = [
        MonaInstance(sim, fabric, f"{name_prefix}-{i}", i // procs_per_node)
        for i in range(count)
    ]
    addresses = [inst.address for inst in instances]
    comms = [inst.comm_create(addresses) for inst in instances]
    return fabric, instances, comms


def run_all(sim: Simulation, gens: Sequence[Generator], max_time: float = 600.0) -> List:
    """Spawn one task per generator, run to completion, return results
    in order — the standard way to drive a collective across ranks.

    Steps event-by-event so ``sim.now`` afterwards is exactly the time
    the last task finished (benchmarks read timings off the clock).
    """
    tasks = [sim.spawn(gen, name=f"rank-{i}") for i, gen in enumerate(gens)]
    deadline = sim.now + max_time
    while not all(t.finished for t in tasks):
        if not sim.step():
            unfinished = [t.name for t in tasks if not t.finished]
            raise RuntimeError(f"deadlock: queue drained with tasks pending: {unfinished}")
        if sim.now > deadline:
            raise TimeoutError(f"tasks still running at t={sim.now:.2f}s")
    return [t.done.value for t in tasks]


def build_ssg_group(
    sim: Simulation,
    count: int,
    config: Optional[SwimConfig] = None,
    procs_per_node: int = 1,
    observer_factory: Optional[Callable[[int], Callable]] = None,
) -> Tuple[Fabric, GroupFile, List[SSGAgent]]:
    """Bring up an SSG group of ``count`` members, joined sequentially."""
    fabric, margos = build_margo_ring(sim, count, procs_per_node=procs_per_node, name_prefix="ssg")
    group_file = GroupFile()
    agents = []
    for i, margo in enumerate(margos):
        observer = observer_factory(i) if observer_factory else None
        agent = SSGAgent(margo, group_file, config=config, observer=observer)
        drive(sim, agent.start())
        agents.append(agent)
    return fabric, group_file, agents
