"""Axis-aligned index boxes on a lattice.

The occupancy tests in front of the two exact volume kernels are the
same question in two and in three dimensions: *which lattice indices lie
in this box?* — the pixels under the projection of a flagged cell
(:func:`repro.vtk.render.volume_render`, which wants the union of the
boxes as a mask: :func:`box_union`), the voxels inside the bounding box
of a mesh point's cutoff ball (:func:`repro.vtk.filters.resample_to_image`,
which pairs each point with its own box: :func:`index_boxes`). Both
callers want a superset computed cheaply and leave the decision to the
exact kernel, so a box is described by real-valued closed intervals
that the caller has already widened by its own rounding margin.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np

__all__ = ["box_union", "index_boxes"]


def index_boxes(lo: np.ndarray, hi: np.ndarray, shape: Sequence[int]):
    """The lattice indices in each box, as half-open ``[first, last)``
    (``(boxes, len(shape))`` integer arrays), clamped so that a box
    outside the lattice is empty (``first == last``). A NaN bound (inf -
    inf upstream) counts as no bound on that side."""
    # Integers within [lo, hi] are ceil(lo) .. floor(hi); fmax/fmin drop a NaN.
    first = np.fmin(np.fmax(np.ceil(lo), 0), shape).astype(np.intp)
    last = np.fmax(np.fmin(np.floor(hi) + 1, shape), first).astype(np.intp)
    return first, last


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
    edges = index_boxes(lo, hi, shape)
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
