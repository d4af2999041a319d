"""Execution streams and user-level threads.

An :class:`Xstream` models one core running an Argobots scheduler. ULTs
on the same xstream share it cooperatively: explicit compute intervals
(:meth:`Xstream.compute`) serialize, while blocking waits release the
core. :meth:`Xstream.spin_wait` models the MPI alternative the paper
criticizes — holding the core while blocked.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.sim.kernel import Coroutine, Event, Simulation, Task
from repro.sim.resources import Resource

__all__ = ["Ult", "Xstream"]


class Xstream:
    """An execution stream: a serial compute resource plus a ULT registry."""

    def __init__(self, sim: Simulation, name: str = "xstream"):
        self.sim = sim
        self.name = name
        self.core = Resource(sim, capacity=1, name=f"{name}.core")
        self.ults: list["Ult"] = []
        # Monotone spawn counter: default ULT names must not depend on
        # how many finished ULTs pruning has dropped (names flow into
        # span/task identities, hence into determinism digests).
        self._ult_seq = 0
        self._ult_prune_at = 1024
        # Fair-share accounting (DESIGN §13): grants and compute-seconds
        # per tenant, populated once fair-share is enabled.
        self.tenant_grants: Dict[str, int] = {}
        self.tenant_compute: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def spawn(self, gen: Coroutine, name: str = "") -> "Ult":
        """Create and schedule a ULT running ``gen`` on this xstream."""
        if len(self.ults) >= self._ult_prune_at:
            self._prune_ults()
        ult = Ult(self, gen, name or f"{self.name}.ult{self._ult_seq}")
        self._ult_seq += 1
        self.ults.append(ult)
        return ult

    def _prune_ults(self) -> None:
        """Drop finished ULTs (amortized; long-running servers spawn one
        ULT per RPC and would otherwise retain them all)."""
        self.ults = [u for u in self.ults if not u.finished]
        self._ult_prune_at = max(1024, 2 * len(self.ults))

    def enable_fair_share(self) -> None:
        """Round-robin runnable compute requests by tenant (DESIGN §13).

        In the default FIFO mode a noisy tenant that enqueues a burst of
        execute work monopolizes the core until its queue drains; in
        fair-share mode the core rotates across the tenants that have
        runnable work, so each attached simulation makes progress at
        1/Nth of the core regardless of queue depth. Work from tasks
        with no tenant attribution shares one round-robin slot.
        """
        self.core.enable_fair_share()

    def compute(self, seconds: float) -> Generator[Event, Any, None]:
        """Charge ``seconds`` of compute, serialized with other ULTs here.

        ``yield from`` this from ULT code. Zero-cost compute returns
        without touching the core.

        In fair-share mode the request is grouped by the current task's
        tenant attribution (``Task.tenant``, stamped by RPC handlers)
        and the per-tenant grant counters are updated.
        """
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds!r}")
        if seconds == 0:
            return
        if not self.core.fair_share:
            yield from self.core.use(seconds)
            return
        task = self.sim.current_task
        tenant = (task.tenant if task is not None else None) or ""
        yield from self.core.use(seconds, group=tenant)
        self.tenant_grants[tenant] = self.tenant_grants.get(tenant, 0) + 1
        self.tenant_compute[tenant] = self.tenant_compute.get(tenant, 0.0) + seconds

    def spin_wait(self, event: Event) -> Generator[Event, Any, Any]:
        """Wait for ``event`` while *holding* the core (MPI-style block).

        Returns the event's value. Contrast with a bare ``yield event``,
        which is the Argobots-style yielding wait.
        """
        yield self.core.acquire()
        with self.core.held():
            value = yield event
        return value

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the core was busy."""
        if self.sim.now == 0:
            return 0.0
        return self.core.busy_time() / self.sim.now


class Ult:
    """A user-level thread bound to an xstream.

    Thin wrapper over a kernel :class:`Task` that remembers its home
    xstream so library code can charge compute against the right core.
    """

    def __init__(self, xstream: Xstream, gen: Coroutine, name: str):
        self.xstream = xstream
        self.name = name
        self.task: Task = xstream.sim.spawn(gen, name=name)

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.task.finished

    def kill(self) -> None:
        """Forcibly terminate the ULT."""
        self.task.kill()

