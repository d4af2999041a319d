"""Catalyst pipeline scripts.

A :class:`CatalystScript` is the object a user would export from
ParaView: it decides when to run (``frequency``) and what to do
(``run``, a generator receiving a :class:`RenderContext`). Scripts do
*real* filtering/rendering on real data and charge simulated compute
through ``ctx.charge`` — or, when fed virtual payloads, charge the same
model from declared sizes and emit blank frames through the same
(fully real) compositing path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.catalyst.costs import PipelineCostModel
from repro.icet import context_from_controller
from repro.vtk.parallel import MultiProcessController
from repro.vtk.render import Camera, CompositeImage

__all__ = ["CatalystScript", "RenderContext"]


@dataclass
class RenderContext:
    """Everything a script invocation sees."""

    #: The installed controller (MoNA- or MPI-backed).
    controller: MultiProcessController
    #: Staged local payloads for this iteration (datasets or virtual).
    blocks: List[Any]
    #: Charge simulated compute: ``yield from ctx.charge(seconds)``.
    charge: Callable[[float], Generator]
    iteration: int = 0
    width: int = 256
    height: int = 256
    camera: Optional[Camera] = None
    costs: PipelineCostModel = field(default_factory=PipelineCostModel)
    #: Scripts deposit named results here (e.g. the composited image).
    results: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.controller.rank

    def composite(self, image: CompositeImage, op: str = "zbuffer") -> Generator:
        """IceT-composite this rank's image; full image at rank 0."""
        ctx = context_from_controller(self.controller)
        result = yield from ctx.composite(image, op=op, root=0)
        return result


class CatalystScript:
    """Base class for user pipeline scripts.

    Subclasses implement :meth:`run` as a generator; ``frequency``
    gates how often the pipeline executes (every Nth iteration).
    """

    name = "catalyst-script"

    def __init__(self, frequency: int = 1):
        if frequency < 1:
            raise ValueError("frequency must be >= 1")
        self.frequency = frequency

    def should_run(self, iteration: int) -> bool:
        return iteration % self.frequency == 0

    def run(self, ctx: RenderContext) -> Generator:  # pragma: no cover
        raise NotImplementedError
        yield
