"""FIFO resources with capacity, used to model serially-shared hardware.

An execution stream (core) is ``Resource(sim, capacity=1)``: compute
requests on the same core serialize, which is how the Argobots layer
models "a ULT occupies its xstream while computing" and how the MPI
simulator models "a blocking MPI call spins on its core".
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, List, Optional

from repro.sim.kernel import Event, Simulation

__all__ = ["HeldGuard", "Resource"]


class HeldGuard:
    """Releases one already-acquired grant when its ``with`` scope exits.

    The guard does not acquire — entering asserts a grant is actually
    held, so misuse fails loudly at the guard instead of corrupting the
    count at release. Exit runs on normal fall-through, on exceptions,
    and on GeneratorExit when the owning task is killed at a yield
    inside the block, which is what makes ``with res.held():`` the
    structurally leak-free way to hold a grant across yields.
    """

    __slots__ = ("_res",)

    def __init__(self, res: "Resource"):
        self._res = res

    def __enter__(self) -> "HeldGuard":
        if self._res.in_use <= 0:
            raise RuntimeError(
                f"held() guard on {self._res.name!r} entered without a grant"
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._res.release()
        return False


class Resource:
    """A capacity-limited FIFO server.

    Usage from a task::

        yield resource.acquire()
        with resource.held():        # releases on exit, error, or kill
            yield sim.timeout(cost)

    or the one-shot helper ``yield from resource.use(cost)``.

    By default waiters are served in strict FIFO order. A resource can
    instead be switched to *fair-share* mode (:meth:`enable_fair_share`)
    where each waiter carries a group label and grants round-robin
    across groups — the scheduling policy behind per-tenant fair-share
    on Argobots xstreams (DESIGN §13). The FIFO path is untouched by
    the feature: unless fair-share is explicitly enabled, behaviour is
    identical to the original deque, event for event.
    """

    def __init__(self, sim: Simulation, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # Cumulative busy integral for utilization reporting.
        self._busy_since: Optional[float] = None
        self._busy_time = 0.0
        # Fair-share mode: per-group FIFO queues plus a rotation list in
        # first-seen order; ``_rr`` points at the next group to serve.
        self._fair = False
        self._group_queues: Dict[str, Deque[Event]] = {}
        self._rotation: List[str] = []
        self._rr = 0

    # ------------------------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of currently held grants."""
        return self._in_use

    @property
    def fair_share(self) -> bool:
        """Whether grants round-robin across groups instead of FIFO."""
        return self._fair

    def enable_fair_share(self) -> None:
        """Switch waiter service from FIFO to round-robin by group.

        Must be called while no waiters are queued (in practice: at
        deployment time, before traffic) so no FIFO waiter's ordering
        guarantee is silently rewritten.
        """
        if self._waiters:
            raise RuntimeError(
                f"enable_fair_share() on {self.name!r} with pending FIFO waiters"
            )
        self._fair = True

    def busy_time(self) -> float:
        """Total simulated time during which at least one grant was held."""
        total = self._busy_time
        if self._busy_since is not None:
            total += self.sim.now - self._busy_since
        return total

    # ------------------------------------------------------------------
    def acquire(self, group: Optional[str] = None) -> Event:
        """Event granting a unit of capacity (fires FIFO, or round-robin
        by ``group`` in fair-share mode; ungrouped waiters share the
        ``""`` group there)."""
        ev = Event(self.sim, name=f"{self.name}.acquire")
        if self._in_use < self.capacity:
            self._grant(ev)
        elif not self._fair:
            self._waiters.append(ev)
        else:
            label = group or ""
            queue = self._group_queues.get(label)
            if queue is None:
                queue = self._group_queues[label] = deque()
                self._rotation.append(label)
            queue.append(ev)
        return ev

    def release(self, _grant: object = None) -> None:
        """Return a unit of capacity, waking the next waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self._busy_time += self.sim.now - self._busy_since
            self._busy_since = None
        if self._fair:
            self._grant_next_fair()
            return
        while self._waiters:
            ev = self._waiters.popleft()
            if ev.fired:
                continue  # cancelled waiter
            self._grant(ev)
            break

    def _grant_next_fair(self) -> None:
        """Serve the next pending group after ``_rr``, round-robin.

        Groups rotate in first-seen order, which is deterministic under
        the kernel's deterministic schedule; a group with no pending
        waiter is skipped without losing its turn marker.
        """
        count = len(self._rotation)
        for offset in range(count):
            index = (self._rr + offset) % count
            queue = self._group_queues[self._rotation[index]]
            while queue:
                ev = queue.popleft()
                if ev.fired:
                    continue  # cancelled waiter
                self._rr = (index + 1) % count
                self._grant(ev)
                return

    def use(self, duration: float, group: Optional[str] = None) -> Generator[Event, object, None]:
        """Acquire, hold for ``duration`` simulated seconds, release.

        Interrupt-safe: an interrupt while queued withdraws the pending
        acquire (releasing the grant if it raced in); an interrupt while
        holding releases the grant.
        """
        grant_ev = self.acquire(group)
        try:
            yield grant_ev
        except BaseException:
            if grant_ev.fired:
                self.release()
            else:
                self.cancel(grant_ev)
            raise
        with self.held():
            yield self.sim.timeout(duration)

    def held(self) -> HeldGuard:
        """Guard releasing one (already acquired) grant on scope exit."""
        return HeldGuard(self)

    def cancel(self, ev: Event) -> None:
        """Withdraw a pending acquire (no-op if already granted)."""
        if self._fair:
            for queue in self._group_queues.values():
                try:
                    queue.remove(ev)
                    return
                except ValueError:
                    continue
            return
        try:
            self._waiters.remove(ev)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    def _grant(self, ev: Event) -> None:
        if self._in_use == 0 and self._busy_since is None:
            self._busy_since = self.sim.now
        self._in_use += 1
        ev.succeed(self)
