"""The VTK-style data model, NumPy-native.

Datasets carry named point/cell arrays in plain ``dict[str, ndarray]``
fields. All geometry is float64, connectivity int64. Datasets are
cheap containers; filters (see :mod:`repro.vtk.filters`) are pure
functions from dataset to dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ImageData", "MultiBlockDataSet", "PolyData", "UnstructuredGrid"]

#: VTK cell type id for tetrahedra (the only 3D cell our DWI meshes use).
VTK_TETRA = 10


def _validate_field(name: str, values: np.ndarray, expected: int, kind: str) -> np.ndarray:
    values = np.asarray(values)
    if values.shape[0] != expected:
        raise ValueError(
            f"{kind} array {name!r} has {values.shape[0]} entries, expected {expected}"
        )
    return values


@dataclass
class ImageData:
    """A regular (structured) grid with point-centered fields.

    ``dims`` counts points per axis (nx, ny, nz); fields are stored
    flattened in C order (z varies slowest when indexing [x, y, z] —
    we use ``np.ndarray`` of shape ``dims`` directly for clarity).
    """

    dims: Tuple[int, int, int]
    origin: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    spacing: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    point_data: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ValueError(f"bad dims {self.dims}")
        for name, values in list(self.point_data.items()):
            values = np.asarray(values)
            if values.shape != tuple(self.dims):
                raise ValueError(
                    f"point array {name!r} has shape {values.shape}, expected {self.dims}"
                )
            self.point_data[name] = values

    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        return int(np.prod(self.dims))

    @property
    def num_cells(self) -> int:
        return int(np.prod([max(d - 1, 0) for d in self.dims]))

    @property
    def bounds(self) -> Tuple[float, float, float, float, float, float]:
        o, s, d = self.origin, self.spacing, self.dims
        return (
            o[0], o[0] + s[0] * (d[0] - 1),
            o[1], o[1] + s[1] * (d[1] - 1),
            o[2], o[2] + s[2] * (d[2] - 1),
        )

    def set_field(self, name: str, values: np.ndarray) -> None:
        values = np.asarray(values)
        if values.shape != tuple(self.dims):
            raise ValueError(f"shape {values.shape} != dims {self.dims}")
        self.point_data[name] = values

    def field(self, name: str) -> np.ndarray:
        return self.point_data[name]

    def axis_coords(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The grid points' coordinates along each axis: point ``(i, j, k)``
        is at ``(xs[i], ys[j], zs[k])``."""
        return tuple(
            self.origin[a] + self.spacing[a] * np.arange(self.dims[a]) for a in range(3)
        )

    def point_coords(self) -> np.ndarray:
        """All grid points as an (N, 3) array (x fastest)."""
        gx, gy, gz = np.meshgrid(*self.axis_coords(), indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    @property
    def nbytes(self) -> int:
        return sum(v.nbytes for v in self.point_data.values())


@dataclass
class PolyData:
    """A triangle surface with optional per-point fields."""

    points: np.ndarray  # (N, 3) float
    triangles: np.ndarray  # (M, 3) int
    point_data: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.triangles.size and self.triangles.max(initial=-1) >= len(self.points):
            raise ValueError("triangle index out of range")
        if self.triangles.size and self.triangles.min(initial=0) < 0:
            raise ValueError("negative triangle index")
        for name, values in list(self.point_data.items()):
            self.point_data[name] = _validate_field(name, values, len(self.points), "point")

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "PolyData":
        return cls(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def nbytes(self) -> int:
        return (
            self.points.nbytes
            + self.triangles.nbytes
            + sum(v.nbytes for v in self.point_data.values())
        )

    def triangle_areas(self) -> np.ndarray:
        a = self.points[self.triangles[:, 0]]
        b = self.points[self.triangles[:, 1]]
        c = self.points[self.triangles[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def surface_area(self) -> float:
        return float(self.triangle_areas().sum())

    @property
    def bounds(self) -> Tuple[float, float, float, float, float, float]:
        if not len(self.points):
            return (0.0,) * 6
        mins = self.points.min(axis=0)
        maxs = self.points.max(axis=0)
        return (mins[0], maxs[0], mins[1], maxs[1], mins[2], maxs[2])

    @staticmethod
    def concatenate(pieces: Sequence["PolyData"]) -> "PolyData":
        """Merge surfaces, offsetting connectivity; fields present in
        *all* pieces are concatenated, others dropped."""
        pieces = [p for p in pieces if p.num_points]
        if not pieces:
            return PolyData.empty()
        points = np.vstack([p.points for p in pieces])
        offsets = np.cumsum([0] + [p.num_points for p in pieces[:-1]])
        triangles = np.vstack(
            [p.triangles + off for p, off in zip(pieces, offsets) if p.num_triangles]
            or [np.zeros((0, 3), dtype=np.int64)]
        )
        common = set(pieces[0].point_data)
        for p in pieces[1:]:
            common &= set(p.point_data)
        point_data = {
            name: np.concatenate([p.point_data[name] for p in pieces])
            for name in sorted(common)
        }
        return PolyData(points, triangles, point_data)


@dataclass
class UnstructuredGrid:
    """A tetrahedral mesh with point and cell fields."""

    points: np.ndarray  # (N, 3)
    cells: np.ndarray  # (M, 4) tetra connectivity
    point_data: Dict[str, np.ndarray] = field(default_factory=dict)
    cell_data: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.cells = np.asarray(self.cells, dtype=np.int64).reshape(-1, 4)
        if self.cells.size and self.cells.max(initial=-1) >= len(self.points):
            raise ValueError("cell index out of range")
        for name, values in list(self.point_data.items()):
            self.point_data[name] = _validate_field(name, values, len(self.points), "point")
        for name, values in list(self.cell_data.items()):
            self.cell_data[name] = _validate_field(name, values, len(self.cells), "cell")

    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def nbytes(self) -> int:
        return (
            self.points.nbytes
            + self.cells.nbytes
            + sum(v.nbytes for v in self.point_data.values())
            + sum(v.nbytes for v in self.cell_data.values())
        )

    @property
    def bounds(self) -> Tuple[float, float, float, float, float, float]:
        if not len(self.points):
            return (0.0,) * 6
        mins = self.points.min(axis=0)
        maxs = self.points.max(axis=0)
        return (mins[0], maxs[0], mins[1], maxs[1], mins[2], maxs[2])

    def cell_centers(self) -> np.ndarray:
        return self.points[self.cells].mean(axis=1)

    def cell_volumes(self) -> np.ndarray:
        p = self.points[self.cells]
        a, b, c, d = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
        return np.abs(np.einsum("ij,ij->i", b - a, np.cross(c - a, d - a))) / 6.0

    def total_volume(self) -> float:
        return float(self.cell_volumes().sum())


@dataclass
class MultiBlockDataSet:
    """An ordered collection of datasets (blocks may be None = absent)."""

    blocks: List[Optional[object]] = field(default_factory=list)

    def append(self, block) -> None:
        self.blocks.append(block)

    def non_empty(self) -> List[object]:
        return [b for b in self.blocks if b is not None]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def nbytes(self) -> int:
        return sum(getattr(b, "nbytes", 0) for b in self.non_empty())

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, idx: int):
        return self.blocks[idx]
