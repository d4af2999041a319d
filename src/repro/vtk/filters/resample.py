"""Resampling unstructured meshes onto regular grids (vtkResampleToImage).

Volume rendering operates on :class:`~repro.vtk.dataset.ImageData`, so
the DWI pipeline resamples its merged tetrahedral mesh first. We use
nearest-neighbor interpolation from mesh points via a KD-tree, with a
distance cutoff marking exterior voxels (value 0) — a faithful,
fast stand-in for VTK's cell-locator-based probe.

The one ``tree.query`` is *bounded by the cutoff*: a voxel farther than
that from every mesh point is exterior whatever its nearest neighbour
is, so the tree prunes on the bound instead of searching for an exact
neighbour nobody reads (on the DWI meshes, 94 % of the voxels). SciPy's
``distance_upper_bound`` is exclusive and the cutoff test is ``<=``,
hence the bound is the next float above the cutoff; a miss comes back
as distance ``inf`` and index ``n``, which must never index a field.

**Bit-identity contract.** Every resampled field is byte-for-byte what
the unbounded query gives (``resample_loop`` in
``tests/oracles/vtk_loops.py``, compared in ``tests/test_vtk_oracles.py``):
the bound only prunes subtrees that cannot hold a point within it, so
the tree visits the candidates within the cutoff in the same order and
an exact tie between two of them resolves to the same one.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.vtk.dataset import ImageData, UnstructuredGrid

__all__ = ["resample_to_image"]


def resample_to_image(
    grid: UnstructuredGrid,
    dims: Tuple[int, int, int],
    fields: Optional[Sequence[str]] = None,
    bounds: Optional[Sequence[float]] = None,
    cutoff_factor: float = 2.0,
) -> ImageData:
    """Sample ``grid``'s point fields onto a ``dims`` regular grid.

    ``bounds`` default to the mesh bounds; voxels farther than
    ``cutoff_factor`` x the mean voxel spacing from any mesh point are
    set to 0 (outside the mesh).
    """
    if len(dims) != 3 or any(d < 2 for d in dims):
        raise ValueError(f"dims must be three values >= 2, got {dims}")
    names = list(fields) if fields is not None else list(grid.point_data)
    for name in names:
        if name not in grid.point_data:
            raise KeyError(f"point field {name!r} not in grid")

    b = tuple(bounds) if bounds is not None else grid.bounds
    origin = [b[0], b[2], b[4]]
    spacing = [(b[2 * i + 1] - b[2 * i]) / (dims[i] - 1) for i in range(3)]
    # A planar (or linear, or single-point) mesh has no extent along some
    # axis; a zero spacing there would make every consumer divide by
    # zero. Give such an axis the mean pitch of the others and centre its
    # layers on the plane, so the mesh resamples to a slab.
    sized = [s for s in spacing if s != 0.0]
    for i in range(3):
        if spacing[i] == 0.0:
            spacing[i] = float(np.mean(sized)) if sized else 1.0
            origin[i] -= spacing[i] * (dims[i] - 1) / 2
    image = ImageData(dims=tuple(dims), origin=tuple(origin), spacing=tuple(spacing))
    if grid.num_points == 0:
        for name in names:
            image.set_field(name, np.zeros(dims))
        return image

    targets = image.point_coords()
    tree = cKDTree(grid.points)
    cutoff = cutoff_factor * float(np.mean(spacing))
    dist, nearest = tree.query(targets, k=1, distance_upper_bound=np.nextafter(cutoff, np.inf))
    inside = np.flatnonzero(dist <= cutoff)
    nearest = nearest[inside]
    for name in names:
        source = np.asarray(grid.point_data[name], dtype=np.float64)
        sampled = np.zeros(len(targets))
        sampled[inside] = source[nearest]
        image.set_field(name, sampled.reshape(dims))
    return image
