"""The Mandelbulb miniapp: heavy geometry for stressing pipelines.

Computes the escape-iteration field of the power-8 triplex map

    v  <-  v^n + c,   v^n = r^n (sin(n*theta) cos(n*phi),
                               sin(n*theta) sin(n*phi),
                               cos(n*theta))

on a regular grid over [-1.2, 1.2]^3, fully vectorized with an active-
point mask. The domain is partitioned along the z axis, and each
process may own several blocks (exactly the miniapp's layout: in the
paper each client generates 4 blocks of 128^3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.vtk.dataset import ImageData

__all__ = ["MandelbulbBlock", "mandelbulb_field"]

EXTENT = 1.2  # the fractal lives comfortably inside [-1.2, 1.2]^3


def mandelbulb_field(
    dims: Tuple[int, int, int],
    origin: Tuple[float, float, float],
    spacing: Tuple[float, float, float],
    power: float = 8.0,
    max_iterations: int = 12,
    bailout: float = 2.0,
) -> np.ndarray:
    """Escape-iteration counts (float) for each grid point."""
    nx, ny, nz = dims
    xs = origin[0] + spacing[0] * np.arange(nx)
    ys = origin[1] + spacing[1] * np.arange(ny)
    zs = origin[2] + spacing[2] * np.arange(nz)
    cx, cy, cz = np.meshgrid(xs, ys, zs, indexing="ij")

    vx = np.zeros_like(cx)
    vy = np.zeros_like(cy)
    vz = np.zeros_like(cz)
    iterations = np.zeros(dims, dtype=np.float64)
    active = np.ones(dims, dtype=bool)

    for _ in range(max_iterations):
        r = np.sqrt(vx**2 + vy**2 + vz**2)
        escaped = active & (r > bailout)
        active &= ~escaped
        if not active.any():
            break
        ax, ay, az = vx[active], vy[active], vz[active]
        ra = r[active]
        theta = np.arccos(np.divide(az, ra, out=np.zeros_like(az), where=ra > 0))
        phi = np.arctan2(ay, ax)
        rn = ra**power
        nt, np_ = power * theta, power * phi
        vx[active] = rn * np.sin(nt) * np.cos(np_) + cx[active]
        vy[active] = rn * np.sin(nt) * np.sin(np_) + cy[active]
        vz[active] = rn * np.cos(nt) + cz[active]
        iterations[active] += 1.0
    return iterations


@dataclass
class MandelbulbBlock:
    """One z-slab block of the global Mandelbulb grid.

    The global grid has ``total_blocks`` slabs along z; block ``index``
    covers its share. ``resolution`` is points per axis within a block
    (x and y span the full domain; z spans the slab).
    """

    index: int
    total_blocks: int
    resolution: Tuple[int, int, int] = (32, 32, 32)
    power: float = 8.0
    max_iterations: int = 12

    def __post_init__(self):
        if not 0 <= self.index < self.total_blocks:
            raise ValueError(f"block index {self.index} out of range")

    @property
    def dims(self) -> Tuple[int, int, int]:
        return tuple(self.resolution)

    @property
    def origin(self) -> Tuple[float, float, float]:
        z_span = 2 * EXTENT / self.total_blocks
        return (-EXTENT, -EXTENT, -EXTENT + self.index * z_span)

    @property
    def spacing(self) -> Tuple[float, float, float]:
        nx, ny, nz = self.resolution
        z_span = 2 * EXTENT / self.total_blocks
        return (2 * EXTENT / (nx - 1), 2 * EXTENT / (ny - 1), z_span / (nz - 1))

    def generate(self) -> ImageData:
        """Compute the block's field (real work)."""
        field = mandelbulb_field(
            self.dims, self.origin, self.spacing, self.power, self.max_iterations
        )
        img = ImageData(dims=self.dims, origin=self.origin, spacing=self.spacing)
        img.set_field("iterations", field)
        return img
