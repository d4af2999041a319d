"""Deterministic discrete-event simulation (DES) substrate.

Everything in this reproduction — the Mochi stack, MoNA, the MPI
simulator, the Colza service, and the applications — executes on top of
this kernel. Simulated processes are :class:`~repro.sim.kernel.Task`
objects (Python generators); blocking operations are expressed by
yielding :class:`~repro.sim.kernel.Event` objects, and the kernel
advances a simulated clock deterministically.

The public surface:

- :class:`Simulation` — the event loop and clock.
- :class:`Event`, :class:`Task` — synchronization and control flow.
- :class:`AllOf` — every event; :class:`AnyOf` — a race, the first
  outcome wins and the losers are withdrawn.
- :class:`Resource` — FIFO server with capacity (models cores/NICs).
- :class:`Interrupt`, :class:`Killed`, :class:`Deadline` — cancellation
  machinery.
- :class:`RngRegistry` — named deterministic random streams.
- :func:`controlled_ties` — hand same-time choices to an exploration
  driver (the model checker's hook).
- :mod:`repro.sim.platform` — the cluster model (nodes, transports,
  launch latencies) shared by NA and the benchmarks.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Deadline,
    Event,
    Interrupt,
    Killed,
    SimulationError,
    Simulation,
    Task,
    controlled_ties,
)
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry
from repro.sim.trace import Span, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Deadline",
    "Event",
    "Interrupt",
    "Killed",
    "Resource",
    "RngRegistry",
    "Simulation",
    "SimulationError",
    "Span",
    "Task",
    "Tracer",
    "controlled_ties",
]
