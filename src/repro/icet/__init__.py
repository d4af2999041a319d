"""IceT-sim: parallel image compositing.

IceT is VTK/ParaView's image-compositing library. Colza's change to
this layer (paper §II-D) is reproduced in full:

- :class:`IceTCommunicator` — the C struct of communication function
  pointers, with MPI and MoNA implementations;
- the **context factory registry**
  (:func:`register_communicator_factory`) — the paper's fix for
  ParaView's hard-coded downcast of ``vtkCommunicator`` to
  ``vtkMPICommunicator``: new controller kinds register a conversion
  function instead;
- the compositing strategies: **binary swap** (with the standard fold
  step for non-power-of-two counts) and **reduce-to-root**, over
  either z-buffer (opaque) or ordered 'over' (translucent) operators.
"""

from repro.icet.communicator import IceTCommunicator, MonaIceTCommunicator, MPIIceTCommunicator
from repro.icet.compositor import binary_swap, reduce_to_root
from repro.icet.context import (
    IceTContext,
    context_from_controller,
    register_communicator_factory,
)

__all__ = [
    "IceTCommunicator",
    "IceTContext",
    "MPIIceTCommunicator",
    "MonaIceTCommunicator",
    "binary_swap",
    "context_from_controller",
    "reduce_to_root",
    "register_communicator_factory",
]
