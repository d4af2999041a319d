"""The per-process Catalyst co-processor.

One :class:`CoProcessor` lives inside each Colza pipeline instance. It
owns the pipeline's :class:`~repro.vtk.parallel.VtkProcessModule`,
has the process's :class:`VtkRuntime` charge the one-time VTK/Python
initialization cost on the first execution (the spike visible in
Figs. 5, 9 and 10 whenever a fresh server joins), and re-installs the
global controller whenever the communicator changes — the
reinitialization capability the paper needed Kitware's help to unlock.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.catalyst.costs import PipelineCostModel
from repro.catalyst.script import CatalystScript, RenderContext
from repro.sim.kernel import Event, Simulation
from repro.vtk.parallel import MultiProcessController, VtkProcessModule
from repro.vtk.render import Camera

__all__ = ["CoProcessor", "VtkRuntime"]


class VtkRuntime:
    """The VTK shared libraries and Python interpreter of one process.

    Loading them is paid once per *process*, by whichever pipeline
    executes first; pipelines of the same process that arrive while the
    load is under way wait for it instead of paying again
    (single-flight). A loader killed mid-load (its execution was
    aborted) wakes the waiters with the process still unloaded, and the
    first of them starts the load over. ``sim`` is only needed by a
    runtime that several co-processors share.
    """

    def __init__(self, sim: Optional[Simulation] = None):
        self.sim = sim
        self.loaded = False
        #: Fired when the load in flight ends, either way.
        self._load_ended: Optional[Event] = None

    def load(self, charge: Callable[[float], Generator], seconds: float) -> Generator:
        while not self.loaded:
            if self._load_ended is not None:
                yield self._load_ended
                continue
            if self.sim is not None:
                self._load_ended = self.sim.event("vtk.load_ended")
            try:
                yield from charge(seconds)
                self.loaded = True
            finally:
                ended, self._load_ended = self._load_ended, None
                if ended is not None:
                    ended.succeed()


class CoProcessor:
    """Catalyst driver for one staging process."""

    def __init__(
        self,
        name: str = "catalyst",
        costs: Optional[PipelineCostModel] = None,
        width: int = 256,
        height: int = 256,
        runtime: Optional[VtkRuntime] = None,
    ):
        self.name = name
        self.costs = costs or PipelineCostModel()
        self.width = width
        self.height = height
        self.process_module = VtkProcessModule(name=f"{name}.pm")
        self.script: Optional[CatalystScript] = None
        #: Shared by every co-processor of the process; private when the
        #: process runs a single one (the MPI staging baselines).
        self.runtime = runtime or VtkRuntime()

    # ------------------------------------------------------------------
    def initialize(self, script: CatalystScript, controller: MultiProcessController) -> None:
        """Install the pipeline script and the (initial) controller."""
        self.script = script
        self.process_module.set_global_controller(controller)

    def update_controller(self, controller: MultiProcessController) -> None:
        """Swap the controller after a membership change.

        ParaView initially could not survive this; the paper's fix makes
        it a plain re-set of the global controller.
        """
        self.process_module.set_global_controller(controller)

    # ------------------------------------------------------------------
    def coprocess(
        self,
        iteration: int,
        blocks: List[Any],
        charge: Callable[[float], Generator],
        camera: Optional[Camera] = None,
    ) -> Generator:
        """Run the installed script on this iteration's staged blocks.

        Returns the script's ``results`` dict (rank 0 carries the
        composited image), or None when the script's frequency skips
        the iteration.
        """
        if self.script is None:
            raise RuntimeError(f"{self.name}: initialize() before coprocess()")
        if not self.script.should_run(iteration):
            return None
        if not self.runtime.loaded:
            # Loading VTK shared libraries + starting the Python
            # interpreter — the first-execution spike.
            yield from self.runtime.load(charge, self.costs.init_seconds)
        ctx = RenderContext(
            controller=self.process_module.get_global_controller(),
            blocks=blocks,
            charge=charge,
            iteration=iteration,
            width=self.width,
            height=self.height,
            camera=camera,
            costs=self.costs,
        )
        yield from self.script.run(ctx)
        return ctx.results
