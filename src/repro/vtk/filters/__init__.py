"""VTK-style filters: pure functions dataset -> dataset.

All filters do real, vectorized NumPy computation (no stubs); the DES
charges their simulated cost separately via the pipeline cost model in
:mod:`repro.catalyst.costs`.
"""

from repro.vtk.filters.clip import clip_polydata
from repro.vtk.filters.contour import contour
from repro.vtk.filters.merge import merge_blocks
from repro.vtk.filters.resample import resample_to_image

__all__ = [
    "clip_polydata",
    "contour",
    "merge_blocks",
    "resample_to_image",
]
