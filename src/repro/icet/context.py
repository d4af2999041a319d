"""vtkIceTContext with the factory-registry fix.

ParaView originally created an IceT communicator by *downcasting* its
``vtkCommunicator`` to ``vtkMPICommunicator`` and unwrapping the raw
``MPI_Comm`` — impossible for a MoNA-backed controller. The paper adds
a factory mechanism: controller kinds register a conversion function.
We reproduce exactly that. ``"mpi"`` is registered here (upstream
behaviour); ``"mona"`` is registered by :mod:`repro.catalyst` (the
Colza-side patch).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator

from repro.icet.communicator import IceTCommunicator, MPIIceTCommunicator
from repro.icet.compositor import binary_swap, reduce_to_root
from repro.vtk.parallel import MultiProcessController
from repro.vtk.render.image import CompositeImage

__all__ = [
    "IceTContext",
    "context_from_controller",
    "register_communicator_factory",
]

_FACTORIES: Dict[str, Callable[[MultiProcessController], IceTCommunicator]] = {}


def register_communicator_factory(
    kind: str, factory: Callable[[MultiProcessController], IceTCommunicator]
) -> None:
    """Register a conversion from controller kind to IceTCommunicator."""
    _FACTORIES[kind] = factory


def context_from_controller(controller: MultiProcessController) -> "IceTContext":
    """Build an IceT context for whatever controller is installed."""
    factory = _FACTORIES.get(controller.kind)
    if factory is None:
        raise TypeError(
            f"no IceT communicator factory registered for controller kind "
            f"{controller.kind!r} (registered: {sorted(_FACTORIES)}) — this is "
            "the downcast failure the paper's factory mechanism fixes"
        )
    return IceTContext(factory(controller))


# Upstream behaviour: only MPI is supported out of the box.
register_communicator_factory(
    "mpi", lambda controller: MPIIceTCommunicator(controller.communicator.comm)
)


class IceTContext:
    """A compositing context bound to one rank's IceT communicator."""

    def __init__(self, icomm: IceTCommunicator, strategy: str = "bswap"):
        if strategy not in ("bswap", "reduce"):
            raise ValueError(f"unknown strategy {strategy!r} (bswap|reduce)")
        self.icomm = icomm
        self.strategy = strategy

    def composite(
        self, image: CompositeImage, op: str = "zbuffer", root: int = 0
    ) -> Generator:
        """Composite this rank's image; full image returned at root."""
        if self.strategy == "bswap":
            return (yield from binary_swap(self.icomm, image, op=op, root=root))
        return (yield from reduce_to_root(self.icomm, image, op=op, root=root))
