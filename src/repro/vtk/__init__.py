"""VTK-sim: the visualization data model, filters, parallelism, rendering.

A from-scratch, NumPy-native reimplementation of the slice of
VTK/ParaView that Colza's pipelines exercise:

- **data model** (:mod:`repro.vtk.dataset`): ``ImageData`` (regular
  grids), ``PolyData`` (triangle surfaces), ``UnstructuredGrid``
  (tetrahedral meshes), ``MultiBlockDataSet``;
- **filters** (:mod:`repro.vtk.filters`): iso-surface extraction
  (marching tetrahedra), plane clipping, block merging, resampling to
  image — all real, vectorized computations;
- **parallelism** (:mod:`repro.vtk.parallel`): the
  ``Communicator`` / ``MultiProcessController`` abstraction pair with
  ``MonaController`` and ``MPIController`` implementations, plus the
  per-process ``VtkProcessModule`` whose ``set_global_controller`` is
  the paper's dependency-injection hook;
- **rendering** (:mod:`repro.vtk.render`): software rasterizer and
  volume ray-marcher producing RGBA+depth images for IceT compositing.
"""

from repro.vtk.dataset import ImageData, MultiBlockDataSet, PolyData, UnstructuredGrid
from repro.vtk.parallel import (
    Communicator,
    MonaController,
    MPIController,
    MultiProcessController,
    VtkProcessModule,
)

__all__ = [
    "Communicator",
    "ImageData",
    "MPIController",
    "MonaController",
    "MultiBlockDataSet",
    "MultiProcessController",
    "PolyData",
    "UnstructuredGrid",
    "VtkProcessModule",
]
