"""VTK's parallel abstraction: Communicator / MultiProcessController.

This is the hook that makes Colza possible (paper §II-D): VTK code
never talks to MPI directly — it goes through ``vtkCommunicator`` /
``vtkMultiProcessController``, for which we provide a
:class:`MonaController` alongside the classic :class:`MPIController`.
Filters and renderers are agnostic to which one is installed.

Because this reproduction runs many simulated processes in one Python
process, VTK's process-global controller becomes per-simulated-process
state: each staging process owns a :class:`VtkProcessModule`, and
``set_global_controller`` swaps its controller — including *re*-setting
it after a membership change, the ParaView reinitialization fix the
paper needed Kitware's help for.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.mona.ops import ReduceOp, SUM

__all__ = [
    "Communicator",
    "MPIController",
    "MonaController",
    "MultiProcessController",
    "VtkProcessModule",
]


class Communicator:
    """Abstract vtkCommunicator: rank + the collectives VTK filters use.

    Concrete subclasses adapt an underlying transport communicator
    (MoNA or simulated MPI — both expose the same generator protocol,
    which is itself the point of the abstraction) and name their
    ``kind``.
    """

    #: The wrapped transport communicator (MonaComm or MpiComm).
    comm: Any = None

    @property
    def rank(self) -> int:
        return self.comm.rank

    def allreduce(self, payload: Any, op: ReduceOp = SUM) -> Generator:
        return (yield from self.comm.allreduce(payload, op=op))


class MonaCommunicator(Communicator):
    """vtkMonaCommunicator: VTK collectives over a MoNA communicator."""

    def __init__(self, mona_comm):
        self.comm = mona_comm

    @property
    def kind(self) -> str:
        return "mona"


class MPICommunicator(Communicator):
    """vtkMPICommunicator: VTK collectives over (simulated) MPI."""

    def __init__(self, mpi_comm):
        self.comm = mpi_comm

    @property
    def kind(self) -> str:
        return "mpi"


class MultiProcessController:
    """vtkMultiProcessController: the object VTK filters ask for
    parallel context. Wraps a :class:`Communicator`."""

    def __init__(self, communicator: Communicator):
        self.communicator = communicator

    @property
    def rank(self) -> int:
        return self.communicator.rank

    @property
    def kind(self) -> str:
        return self.communicator.kind


class MonaController(MultiProcessController):
    """vtkMonaController — built directly from a MoNA communicator."""

    def __init__(self, mona_comm):
        super().__init__(MonaCommunicator(mona_comm))


class MPIController(MultiProcessController):
    """vtkMPIController — built from a (simulated) MPI communicator."""

    def __init__(self, mpi_comm):
        super().__init__(MPICommunicator(mpi_comm))


class VtkProcessModule:
    """Per-(simulated-)process VTK global state.

    Real VTK has a single process-wide global controller; in the DES,
    each staging process owns one of these. Swapping the controller at
    run time — after every membership change — is the operation
    ParaView initially could not survive and the paper fixed.
    """

    def __init__(self, name: str = "vtk"):
        self.name = name
        self._controller: Optional[MultiProcessController] = None
        #: How many times the controller was (re)set, for tests/metrics.
        self.controller_generation = 0

    def set_global_controller(self, controller: MultiProcessController) -> None:
        if not isinstance(controller, MultiProcessController):
            raise TypeError("expected a MultiProcessController")
        self._controller = controller
        self.controller_generation += 1

    def get_global_controller(self) -> MultiProcessController:
        if self._controller is None:
            raise RuntimeError(
                f"{self.name}: no global controller installed "
                "(call set_global_controller before building pipelines)"
            )
        return self._controller

