"""IceTCommunicator: the function-pointer struct, in two flavors.

IceT (written in C) defines a struct of communication primitives; the
only upstream implementation is MPI-backed. The paper adds a MoNA
implementation without modifying IceT — we mirror that: an abstract
base with exactly the primitives the compositing strategies use, and
two concrete classes delegating to the respective transport
communicators.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Generator, Optional

from repro.telemetry.metrics import Counter

__all__ = ["IceTCommunicator", "MPIIceTCommunicator", "MonaIceTCommunicator"]


class IceTCommunicator:
    """The primitives binary-swap / reduce compositing needs."""

    comm: Any = None

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def sim(self):
        """The owning simulation (both transports expose it via
        ``comm.instance.sim``); used by the compositing spans."""
        return self.comm.instance.sim

    @cached_property
    def _m_composites(self) -> Counter:
        return self.sim.metrics.scope("icet").counter("composites")

    def send(self, dest: int, payload: Any, tag: Any = 0) -> Generator:
        return (yield from self.comm.send(dest, payload, tag))

    def recv(self, source: Optional[int] = None, tag: Any = 0) -> Generator:
        return (yield from self.comm.recv(source, tag))

    def sendrecv(self, dest: int, payload: Any, source: int, tag: Any = 0) -> Generator:
        return (yield from self.comm.sendrecv(dest, payload, source, tag))

    def gather(self, payload: Any, root: int = 0) -> Generator:
        return (yield from self.comm.gather(payload, root=root))


class MPIIceTCommunicator(IceTCommunicator):
    """The classic MPI-backed struct (upstream IceT)."""

    def __init__(self, mpi_comm):
        self.comm = mpi_comm

    @property
    def kind(self) -> str:
        return "mpi"


class MonaIceTCommunicator(IceTCommunicator):
    """The paper's contribution at this layer: MoNA-backed IceT."""

    def __init__(self, mona_comm):
        self.comm = mona_comm

    @property
    def kind(self) -> str:
        return "mona"
