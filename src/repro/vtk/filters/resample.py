"""Resampling unstructured meshes onto regular grids (vtkResampleToImage).

Volume rendering operates on :class:`~repro.vtk.dataset.ImageData`, so
the DWI pipeline resamples its merged tetrahedral mesh first. We use
nearest-neighbor interpolation from mesh points via a KD-tree, with a
distance cutoff marking exterior voxels (value 0) — a faithful,
fast stand-in for VTK's cell-locator-based probe.

The query is **occupancy-first**, like the ray-marcher it feeds
(:mod:`repro.vtk.render.volume`): a cheap superset is computed on the
lattice, and the exact kernel — the one ``tree.query`` — decides, on the
survivors only.

- **Lattice pre-filter.** A voxel within the cutoff of a mesh point lies
  inside that point's cutoff *ball*, hence inside the ball's bounding
  box. Each point's box is written as a closed interval of voxel indices
  per axis, ``(p -+ cutoff - origin) / spacing``, widened by a relative
  plus absolute slack (``_BOX_SLACK``) that dwarfs the rounding of the
  lattice coordinates and of the tree's own distance arithmetic, and the
  union of the boxes (:func:`repro.vtk.occupancy.box_union`) is the set
  of voxels handed to the tree. On the DWI meshes that is under a tenth
  of the lattice; the rest is exterior without asking.
- **Cutoff-bounded query.** The query itself is bounded by the cutoff:
  a voxel farther than that from every mesh point is exterior whatever
  its nearest neighbour is, so the tree prunes on the bound instead of
  searching for an exact neighbour nobody reads. SciPy's
  ``distance_upper_bound`` is exclusive and the cutoff test is ``<=``,
  hence the bound is the next float above the cutoff; a miss comes back
  as distance ``inf`` and index ``n``, which must never index a field.

**Bit-identity contract.** Every resampled field is byte-for-byte what
the unbounded query of every voxel gives (``resample_loop`` in
``tests/oracles/vtk_loops.py``, compared in ``tests/test_vtk_oracles.py``,
which also checks directly that no voxel within the cutoff is kept from
the tree): queries are independent per target, so asking about a subset
changes no answer; and the bound only prunes subtrees that cannot hold a
point within it, so the tree visits the candidates within the cutoff in
the same order and an exact tie between two of them resolves to the same
one.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.vtk.dataset import ImageData, UnstructuredGrid
from repro.vtk.occupancy import box_union

__all__ = ["resample_to_image"]

# Widening of a cutoff ball's index box, relative to the coordinates'
# magnitude in voxel units (plus the same absolute): ~1e7 roundings.
_BOX_SLACK = 1e-9
# The tree compares squared distances: a bound whose square underflows
# to zero (a cutoff of 0) would miss even a voxel *on* a mesh point.
_MIN_QUERY_BOUND = 1e-150


def _load_ckdtree():
    """Bind ``scipy.spatial.cKDTree`` as this module's global of that
    name, on first use (see ``repro.vtk.render.volume``)."""
    global cKDTree
    from scipy.spatial import cKDTree

    return cKDTree


def __getattr__(name: str):
    if name == "cKDTree":
        return _load_ckdtree()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    try:
        cKDTree
    except NameError:  # the process's first resample, with no DWIVolumeScript deployed
        _load_ckdtree()
    tree = cKDTree(grid.points)
    cutoff = cutoff_factor * float(np.mean(spacing))
    # Occupancy first: only a voxel inside the bounding index box of some
    # mesh point's cutoff ball can be within the cutoff of a mesh point.
    reach = np.abs(grid.points) + np.abs(origin) + cutoff
    slack = _BOX_SLACK * (1.0 + reach / spacing)
    near = box_union(
        (grid.points - cutoff - origin) / spacing - slack,
        (grid.points + cutoff - origin) / spacing + slack,
        dims,
    ).reshape(-1).nonzero()[0]
    targets = np.column_stack(
        [axis[i] for axis, i in zip(image.axis_coords(), np.unravel_index(near, dims))]
    )  # image.point_coords()[near], without the other rows
    dist, nearest = tree.query(
        targets, k=1, distance_upper_bound=max(np.nextafter(cutoff, np.inf), _MIN_QUERY_BOUND)
    )
    hit = dist <= cutoff
    inside, nearest = near[hit], nearest[hit]
    for name in names:
        source = np.asarray(grid.point_data[name], dtype=np.float64)
        sampled = np.zeros(image.num_points)
        sampled[inside] = source[nearest]
        image.set_field(name, sampled.reshape(dims))
    return image
