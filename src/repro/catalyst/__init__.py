"""Catalyst-sim: ParaView's in situ co-processing interface.

This package plays the role of ParaView Catalyst in the Colza stack:

- :class:`CoProcessor` — per-pipeline co-processing driver; it has the
  process's :class:`VtkRuntime` charge the (large) one-time VTK/Python
  initialization cost on first use (once per process, however many
  pipelines it runs), runs user pipeline scripts, and — crucially — supports being
  **re-initialized with a different controller** after membership
  changes (the ParaView fix described in §II-D);
- :class:`CatalystScript` / :class:`RenderContext` — the Python
  pipeline-script API ("scripts directly exported from ParaView");
- :mod:`repro.catalyst.costs` — the calibrated compute cost model that
  maps real dataset sizes to simulated seconds.

Importing this package registers the **MoNA IceT factory** — the
ParaView-side patch that lets ``vtkIceTContext`` build an
IceTCommunicator from a ``vtkMonaCommunicator`` instead of downcasting
to MPI.
"""

from repro.icet import register_communicator_factory
from repro.icet.communicator import MonaIceTCommunicator

# The paper's ParaView patch: register the MoNA -> IceT conversion.
register_communicator_factory(
    "mona", lambda controller: MonaIceTCommunicator(controller.communicator.comm)
)

from repro.catalyst.coprocessor import CoProcessor, VtkRuntime
from repro.catalyst.costs import PipelineCostModel, cells_of
from repro.catalyst.script import CatalystScript, RenderContext

__all__ = [
    "CatalystScript",
    "CoProcessor",
    "PipelineCostModel",
    "RenderContext",
    "VtkRuntime",
    "cells_of",
]
