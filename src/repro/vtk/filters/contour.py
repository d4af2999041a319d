"""Iso-surface extraction from regular grids (marching tetrahedra).

VTK's ``vtkContourFilter`` uses marching cubes; we use the marching-
tetrahedra variant (each hexahedral cell split into six tetrahedra
around the 0-6 diagonal). MT avoids the 256-case MC table, has no
ambiguous cases, and converges to the same surface; triangle counts are
~2x MC for the same grid (documented in DESIGN.md §17).

The kernel is table-driven and has no Python loop over tetrahedra,
cases or edges. Active cells (those straddling the iso-value) are
selected first; every (cell, tet) pair computes its 4-bit case and looks
its triangles up in one flat table, ``_SLOT_CORNERS[tet, slot]``, whose
20 slots list the (case, triangle-of-case) pairs in case order and give
each triangle vertex as the pair of *cube* corners its edge joins. All
edges are then interpolated in one shot, and additional point fields
with the same edge weights.

**Bit-identity contract.** Triangles come out ordered by (tet, case,
triangle-of-case, cell) — a stable sort on ``tet * 20 + slot`` — and
each vertex is computed by the same expression as the per-case loop
this replaced (``tests/oracles/vtk_loops.py``), so ``points``,
``triangles`` and every ``point_data`` array are byte-for-byte that
loop's output (``tests/test_vtk_oracles.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.vtk.dataset import ImageData, PolyData

__all__ = ["contour"]

# Cube corner offsets (x, y, z), VTK hexahedron ordering.
_CORNERS = np.array(
    [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ],
    dtype=np.int64,
)

# Six tetrahedra per cube, all sharing the 0-6 diagonal.
_TETS = np.array(
    [
        (0, 1, 2, 6),
        (0, 2, 3, 6),
        (0, 3, 7, 6),
        (0, 7, 4, 6),
        (0, 4, 5, 6),
        (0, 5, 1, 6),
    ],
    dtype=np.int64,
)

# Tetrahedron edges (pairs of local vertex indices 0..3).
_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], dtype=np.int64)
_EDGE_INDEX = {tuple(e): i for i, e in enumerate(_EDGES)}


def _edge_between(a: int, b: int) -> int:
    return _EDGE_INDEX[(a, b) if a < b else (b, a)]


def _build_case_table() -> List[List[Tuple[int, int, int]]]:
    """For each 4-bit inside-mask, the triangles as triples of edge ids."""
    table: List[List[Tuple[int, int, int]]] = []
    for mask in range(16):
        inside = [v for v in range(4) if mask & (1 << v)]
        outside = [v for v in range(4) if v not in inside]
        tris: List[Tuple[int, int, int]] = []
        if len(inside) in (1, 3):
            lone = inside[0] if len(inside) == 1 else outside[0]
            others = [v for v in range(4) if v != lone]
            e = [_edge_between(lone, o) for o in others]
            tris.append((e[0], e[1], e[2]))
        elif len(inside) == 2:
            i, j = inside
            a, b = outside
            eia, eib = _edge_between(i, a), _edge_between(i, b)
            eja, ejb = _edge_between(j, a), _edge_between(j, b)
            tris.append((eia, eib, eja))
            tris.append((eja, eib, ejb))
        table.append(tris)
    return table


_CASES = _build_case_table()
# The case table flattened into 20 slots, one per (case, triangle of the
# case) in case order: case c owns slots _CASE_FIRST[c] .. + _CASE_COUNT[c].
_CASE_COUNT = np.array([len(tris) for tris in _CASES])
_CASE_FIRST = np.cumsum(_CASE_COUNT) - _CASE_COUNT
# (6 tets, 20 slots, 3 vertices, 2 edge ends) -> cube corner id.
_SLOT_CORNERS = _TETS[:, _EDGES[np.array([tri for tris in _CASES for tri in tris])]]


def contour(
    image: ImageData,
    values: Sequence[float],
    field: str,
    interpolate_fields: Optional[Sequence[str]] = None,
) -> PolyData:
    """Extract iso-surfaces of ``field`` at each value in ``values``.

    Returns a single :class:`PolyData`; the contoured scalar appears in
    the output ``point_data`` (constant per iso-level), along with any
    requested ``interpolate_fields``.
    """
    scalars = np.asarray(image.field(field), dtype=np.float64)
    extra_names = [n for n in (interpolate_fields or []) if n != field]
    pieces = [
        _contour_single(image, scalars, float(v), field, extra_names) for v in values
    ]
    return PolyData.concatenate(pieces)


def _cell_corner_values(volume: np.ndarray) -> np.ndarray:
    """(C, 8) corner values for all cells of a (nx,ny,nz) volume."""
    slices = []
    for dx, dy, dz in _CORNERS:
        slices.append(
            volume[
                dx : volume.shape[0] - 1 + dx,
                dy : volume.shape[1] - 1 + dy,
                dz : volume.shape[2] - 1 + dz,
            ].ravel()
        )
    return np.column_stack(slices)


def _contour_single(
    image: ImageData,
    scalars: np.ndarray,
    iso: float,
    field: str,
    extra_names: List[str],
) -> PolyData:
    nx, ny, nz = image.dims
    if min(nx, ny, nz) < 2:
        return PolyData.empty()

    corner_vals = _cell_corner_values(scalars)  # (C, 8)
    active = (corner_vals.min(axis=1) <= iso) & (corner_vals.max(axis=1) > iso)
    idx = np.nonzero(active)[0]
    if idx.size == 0:
        return PolyData.empty()
    vals = corner_vals[idx]  # (A, 8)

    # Cell origin coordinates (A, 3).
    cx, cy, cz = np.unravel_index(idx, (nx - 1, ny - 1, nz - 1))
    cell_origin = np.column_stack([cx, cy, cz]).astype(np.float64)

    # 4-bit case of every (tet, cell), tet-major. Strict inequality,
    # consistent with the active-cell test (min <= iso < max): an
    # iso-value landing exactly on grid values still yields the correct
    # surface (e.g. axis-aligned plane slices through lattice points).
    cases = ((vals[:, _TETS] > iso) @ (1 << np.arange(4))).T.ravel()  # (6 * A,)

    # One entry per emitted triangle: its (tet, cell) and table slot. An
    # active cell always has a mixed tet (all six hold corners 0 and 6).
    n = _CASE_COUNT[cases]
    pair = np.repeat(np.arange(cases.size), n)
    slot = _CASE_FIRST[cases[pair]] + np.arange(pair.size) - np.repeat(np.cumsum(n) - n, n)
    tet, cell = np.divmod(pair, idx.size)
    order = np.argsort(tet * _SLOT_CORNERS.shape[1] + slot, kind="stable")
    cell = cell[order][:, None]  # (T, 1)
    cu, cv = np.moveaxis(_SLOT_CORNERS[tet[order], slot[order]], 2, 0)  # (T, 3) each

    # Each vertex lies on the cube edge cu-cv, where the field crosses iso.
    fu, fv = vals[cell, cu], vals[cell, cv]
    denom = fv - fu
    t = np.where(np.abs(denom) > 1e-300, (iso - fu) / denom, 0.5)
    t = np.clip(t, 0.0, 1.0)
    pu, pv = _CORNERS[cu].astype(np.float64), _CORNERS[cv].astype(np.float64)
    points = (cell_origin[cell] + pu + t[..., None] * (pv - pu)).reshape(-1, 3)
    npts = len(points)
    # Grid-index space -> world space.
    points = np.asarray(image.origin) + points * np.asarray(image.spacing)
    triangles = np.arange(npts, dtype=np.int64).reshape(-1, 3)
    point_data = {field: np.full(npts, iso)}
    for name in extra_names:
        g = _cell_corner_values(np.asarray(image.field(name), dtype=np.float64))[idx]
        gu, gv = g[cell, cu], g[cell, cv]
        point_data[name] = (gu + t * (gv - gu)).reshape(npts)
    return PolyData(points, triangles, point_data)
