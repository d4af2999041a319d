"""ABT-style synchronization objects: Mutex, Barrier.

These mirror the Argobots primitives Margo/MoNA code uses. They are all
cooperative (DES events underneath); none of them consumes core time.
"""

from __future__ import annotations

from repro.sim.kernel import Event, Simulation
from repro.sim.resources import HeldGuard, Resource

__all__ = ["Barrier", "Mutex"]


class Mutex:
    """A cooperative FIFO mutex.

    Use acquire plus the :meth:`held` guard::

        yield mutex.acquire()
        with mutex.held():
            ...          # released on exit, exception, or task kill
    """

    def __init__(self, sim: Simulation, name: str = "mutex"):
        self.sim = sim
        self._res = Resource(sim, capacity=1, name=name)

    def acquire(self) -> Event:
        return self._res.acquire()

    def held(self) -> "HeldGuard":
        """Guard releasing this (already acquired) mutex on scope exit.

        A task kill closes the owning generator, which raises
        GeneratorExit at the current yield; the ``with`` block's exit
        still runs, so the mutex cannot leak across yields inside the
        block — the structural guarantee flowcheck's FC003 checks for.
        """
        return HeldGuard(self._res)


class Barrier:
    """An N-party reusable barrier.

    Each participant does ``yield barrier.arrive()``; the N-th arrival
    releases everyone and the barrier resets for the next round.
    """

    def __init__(self, sim: Simulation, parties: int, name: str = "barrier"):
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.sim = sim
        self.parties = parties
        self.name = name
        self._count = 0
        self._generation = 0
        self._event = Event(sim, name=f"{name}.gen0")

    def arrive(self) -> Event:
        """Event firing (with the generation number) when all have arrived."""
        self._count += 1
        current = self._event
        if self._count >= self.parties:
            generation = self._generation
            self._count = 0
            self._generation += 1
            self._event = Event(self.sim, name=f"{self.name}.gen{self._generation}")
            current.succeed(generation)
        return current
