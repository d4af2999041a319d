"""Concrete Colza pipelines (Catalyst-based).

- :class:`CatalystBackend` — the pipeline class bridging Colza's
  Backend lifecycle to a Catalyst :class:`~repro.catalyst.CoProcessor`,
  rebuilding the MoNA communicator + controller whenever the frozen
  view changes (or running on a static injected MPI communicator for
  the Colza+MPI baseline);
- the three application scripts used throughout the evaluation:
  :class:`IsoSurfaceScript` (Mandelbulb, Gray–Scott) and
  :class:`DWIVolumeScript` (Deep Water Impact).

Importing this module registers the pipeline "libraries":
``libcolza-iso.so`` and ``libcolza-dwi.so``.
"""

from repro.core.pipelines.catalyst_backend import MPI_COMM_REGISTRY, CatalystBackend
from repro.core.pipelines.scripts import DWIVolumeScript, IsoSurfaceScript
from repro.core.pipelines.stats import FieldStats, StatisticsBackend

__all__ = [
    "CatalystBackend",
    "DWIVolumeScript",
    "FieldStats",
    "IsoSurfaceScript",
    "MPI_COMM_REGISTRY",
    "StatisticsBackend",
]
