"""Union of axis-aligned index boxes as a boolean mask.

The occupancy tests in front of the two exact volume kernels are the
same question in two and in three dimensions: *which lattice indices lie
in at least one of these boxes?* — pixels under the projection of a
flagged cell (:func:`repro.vtk.render.volume_render`), voxels inside the
bounding box of a mesh point's cutoff ball
(:func:`repro.vtk.filters.resample_to_image`). Both callers want a
superset computed cheaply and leave the decision to the exact kernel,
so a box is described by real-valued closed intervals that the caller
has already widened by its own rounding margin.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np

__all__ = ["box_union"]


def box_union(lo: np.ndarray, hi: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Boolean array of ``shape``: index ``i`` is set when some box ``b``
    has ``lo[b] <= i <= hi[b]`` on every axis.

    ``lo`` and ``hi`` are ``(boxes, len(shape))`` real-valued and need
    not lie inside the lattice. A difference array takes ``+1`` / ``-1``
    at the ``2**d`` corners of every box (one ``np.bincount`` per corner
    on the ravelled index — ``np.add.at`` is an order of magnitude
    slower) and one ``cumsum`` per axis turns it into a cover count.
    """
    shape = tuple(shape)
    grid = tuple(n + 1 for n in shape)  # a box's upper corner may be index n
    # Integers within [lo, hi] are ceil(lo) .. floor(hi); half-open, and
    # clamped so that a box outside the lattice is empty (first == last).
    # fmax/fmin: a NaN bound (inf - inf) counts as no bound on that side.
    first = np.fmin(np.fmax(np.ceil(lo), 0), shape).astype(np.intp)
    last = np.fmax(np.fmin(np.floor(hi) + 1, shape), first).astype(np.intp)
    edges = (first, last)
    size = int(np.prod(grid))
    cover = np.zeros(size, dtype=np.intp)
    for corner in product((0, 1), repeat=len(shape)):
        index = np.ravel_multi_index(
            tuple(edges[side][:, axis] for axis, side in enumerate(corner)), grid
        )
        hits = np.bincount(index, minlength=size)
        if sum(corner) % 2:
            cover -= hits
        else:
            cover += hits
    cover = cover.reshape(grid)
    for axis in range(len(shape)):
        np.cumsum(cover, axis=axis, out=cover)
    return cover[tuple(slice(n) for n in shape)] > 0
