"""The Catalyst-based Colza pipeline backend.

This is the pipeline class the evaluation deploys everywhere. On
``activate`` with a changed frozen view it rebuilds the MoNA
communicator from the view's addresses and re-installs the VTK global
controller (the full §II-D injection chain); on ``execute`` it runs the
Catalyst co-processor over the staged blocks.

For the **Colza+MPI baseline** (Figs. 5-8), a pipeline configured with
``{"controller": "mpi"}`` instead uses a pre-provisioned static MPI
communicator from :data:`MPI_COMM_REGISTRY` (keyed by daemon name) —
and therefore cannot follow membership changes, exactly the limitation
the paper works around.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Generator, List, Optional

from repro.catalyst import CoProcessor, VtkRuntime
from repro.catalyst.costs import PipelineCostModel
from repro.catalyst.script import CatalystScript
from repro.core.backend import Backend, register_backend
from repro.core.provider import mona_address_of
from repro.na.address import Address
from repro.vtk.parallel import MonaController, MPIController

__all__ = ["CatalystBackend", "MPI_COMM_REGISTRY"]

#: daemon name -> static MpiComm, provisioned by MPI-mode deployments.
MPI_COMM_REGISTRY: Dict[str, Any] = {}

#: daemon process (its MargoInstance) -> the VTK runtime every pipeline
#: instance of that process shares: the library load is paid once per
#: process, not once per pipeline (two tenants' first execute on a
#: joined server costs one ``init_seconds``).
_RUNTIMES: "weakref.WeakKeyDictionary[Any, VtkRuntime]" = weakref.WeakKeyDictionary()


class CatalystBackend(Backend):
    """Backend running a Catalyst co-processor.

    Config keys:

    - ``script``: a :class:`CatalystScript` instance (required);
    - ``controller``: ``"mona"`` (default, elastic) or ``"mpi"``;
    - ``width``/``height``: image size;
    - ``costs``: optional :class:`PipelineCostModel` override;
    - ``camera``: optional fixed camera.
    """

    def __init__(self, margo, name: str, config: Optional[Dict[str, Any]] = None):
        super().__init__(margo, name, config)
        script = self.config.get("script")
        if not isinstance(script, CatalystScript):
            raise ValueError("CatalystBackend requires a CatalystScript in config['script']")
        self.script = script
        self.mode = self.config.get("controller", "mona")
        if self.mode not in ("mona", "mpi"):
            raise ValueError(f"unknown controller mode {self.mode!r}")
        self.coproc = CoProcessor(
            name=f"{name}@{margo.name}",
            costs=self.config.get("costs") or PipelineCostModel(),
            width=self.config.get("width", 256),
            height=self.config.get("height", 256),
            runtime=_RUNTIMES.setdefault(margo, VtkRuntime(margo.sim)),
        )
        self.camera = self.config.get("camera")
        self.comm = None
        self._last_view: tuple = ()
        self.last_results: Optional[dict] = None
        self.executions = 0
        self.provider = None  # set by ColzaProvider.create_pipeline
        self._abort = None  # the current activation's abort event

    # ------------------------------------------------------------------
    def activate(self, iteration: int, view: List[Address]) -> Generator:
        yield from super().activate(iteration, view)
        # Each activation owns one abort event (see abort_execution).
        self._abort = self.margo.sim.event(f"{self.name}.abort")
        if self.mode == "mpi":
            if self.comm is None:
                try:
                    self.comm = MPI_COMM_REGISTRY[self.margo.name]
                except KeyError:
                    raise RuntimeError(
                        f"no static MPI communicator provisioned for {self.margo.name} "
                        "(MPI mode cannot build communicators at run time)"
                    ) from None
                self.coproc.initialize(self.script, MPIController(self.comm))
            elif tuple(view) != self._last_view and self._last_view:
                raise RuntimeError(
                    "membership changed but the MPI world is frozen — "
                    "this is why Colza uses MoNA"
                )
            self._last_view = tuple(view)
            return None
        # MoNA mode: rebuild the communicator when the view changed.
        if tuple(view) != self._last_view:
            mona_addrs = [mona_address_of(a) for a in view]
            self.comm = self.provider.mona.comm_create(mona_addrs)
            controller = MonaController(self.comm)
            if self.coproc.script is None:
                self.coproc.initialize(self.script, controller)
            else:
                self.coproc.update_controller(controller)
            self._last_view = tuple(view)
        return None

    def execute(self, iteration: int) -> Generator:
        sim = self.margo.sim
        span = sim.trace.begin(
            "pipeline.execute", pipeline=self.name, server=self.margo.name,
            iteration=iteration,
        )
        if (abort := self._abort).fired:
            sim.trace.end(span, aborted=True)
            raise RuntimeError(f"execution aborted: {abort.value}")
        payloads = [b.payload for b in self.blocks(iteration)]
        # Run the co-processor as a child task raced against the abort:
        # once the activation ends or a frozen-view member dies, its
        # collectives may never complete, so the race kills the child and
        # the RPC fails instead of hanging (fault tolerance, future work (1)).
        child = sim.spawn(
            self.coproc.coprocess(
                iteration, payloads, charge=self.margo.compute, camera=self.camera
            ),
            name=f"{self.name}.coprocess",
        )
        idx, value = yield sim.any_of([child, abort])
        if idx == 1:
            sim.trace.end(span, aborted=True)
            raise RuntimeError(f"execution aborted: {value}")
        sim.trace.end(span)
        self.executions += 1
        if value is not None:
            self.last_results = value
        return None

    def abort_execution(self, reason: str) -> None:
        if self._abort is not None and not self._abort.fired:
            self._abort.succeed(reason)

    def destroy(self) -> None:
        super().destroy()
        self.comm = None


def _factory(margo, name: str, config: Optional[dict]) -> CatalystBackend:
    return CatalystBackend(margo, name, config)


# The 'shared libraries' the admin can load by name.
register_backend("libcolza-catalyst.so", _factory)
register_backend("libcolza-iso.so", _factory)
register_backend("libcolza-dwi.so", _factory)
