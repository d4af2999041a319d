"""The pipeline compute cost model (simulated seconds per real work).

Calibration anchors (see EXPERIMENTS.md for the full derivation):

- **contour** 1.2e-7 s/cell — Fig. 6: Gray–Scott iso+clip over a 2 GB
  domain (268M points) takes ~8 s on 4 servers and scales down ~1/N;
  Fig. 5: Mandelbulb's 33.5M cells/server give the flat ~4.5 s curve.
- **volume** 1.2e-6 s/cell — Fig. 7: DWI volume rendering at 8 procs
  reaches ~60 s around iteration 25-26 (~450M cells); Fig. 10: 72
  procs keep the 553M-cell final iterations under ~10 s.
- **init** 8 s, once per process — Figs. 9/10: a newly added server's
  first execution carries a visible VTK-library + Python-interpreter
  start-up spike; §III-C2 discards first iterations for the same reason.
- per-pixel costs cover rasterization/ray-march image-space work.

These constants make *absolute* simulated times land in the paper's
bands; all *relative* claims (scaling shapes, elastic-vs-static) emerge
from sizes and placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.na.payload import VirtualPayload

__all__ = ["PipelineCostModel", "cells_of"]


def cells_of(payload: Any) -> int:
    """Number of cells/elements a staged payload represents."""
    if payload is None:
        return 0
    if isinstance(payload, VirtualPayload):
        return payload.size
    num_cells = getattr(payload, "num_cells", None)
    if num_cells is not None:
        return int(num_cells)
    if isinstance(payload, np.ndarray):
        return int(payload.size)
    size = getattr(payload, "size", None)
    if size is not None:
        return int(size)
    return 0


@dataclass(frozen=True)
class PipelineCostModel:
    """Simulated-seconds cost coefficients for pipeline stages."""

    #: Iso-surface extraction, per input cell.
    contour_per_cell: float = 1.2e-7
    #: Plane clipping, per surface triangle (output of contour).
    clip_per_triangle: float = 2.0e-8
    #: Block merging, per cell moved.
    merge_per_cell: float = 1.0e-8
    #: Volume rendering (resample+raymarch combined path), per cell.
    volume_per_cell: float = 1.2e-6
    #: Rasterization, per output pixel.
    raster_per_pixel: float = 2.0e-8
    #: One-time VTK + Python interpreter initialization, per process:
    #: charged by the process's first execution whichever pipeline runs
    #: it, shared by all of them (:class:`~repro.catalyst.VtkRuntime`).
    init_seconds: float = 8.0

    # ------------------------------------------------------------------
    def contour(self, ncells: int) -> float:
        return ncells * self.contour_per_cell

    def clip(self, ntriangles: int) -> float:
        return ntriangles * self.clip_per_triangle

    def merge(self, ncells: int) -> float:
        return ncells * self.merge_per_cell

    def volume(self, ncells: int) -> float:
        return ncells * self.volume_per_cell

    def raster(self, npixels: int) -> float:
        return npixels * self.raster_per_pixel
