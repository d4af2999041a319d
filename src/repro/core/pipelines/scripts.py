"""Catalyst scripts for the three evaluation applications.

Each script handles both payload modes transparently:

- **real datasets** (ImageData / UnstructuredGrid): run the actual
  filters and renderer, charging the calibrated cost of the actual
  sizes — used by examples and correctness tests;
- **virtual payloads**: charge the same cost model from declared sizes
  and emit an empty local frame; compositing still runs for real, so
  communication behaviour is identical — used by the paper-scale
  benchmarks.

A server with nothing to draw (virtual blocks only, no block at all, or
blocks the iso-levels miss) hands the compositor
:meth:`CompositeImage.empty`: it has no storage, the wire is charged a
sparse-image header and one run for it, and every z-buffer combine
against it is a no-op, so the host pays for such a rank per message, not
per pixel.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalyst.costs import cells_of
from repro.catalyst.script import CatalystScript, RenderContext
from repro.mona.ops import MAX, MIN
from repro.na.payload import VirtualPayload
from repro.vtk.dataset import ImageData, MultiBlockDataSet, PolyData, UnstructuredGrid
from repro.vtk.filters import clip_polydata, contour, merge_blocks, resample_to_image
from repro.vtk.render import Camera, CompositeImage, rasterize, volume_render

__all__ = ["DWIVolumeScript", "IsoSurfaceScript"]


def _global_bounds(ctx: RenderContext, local_bounds: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Allreduce (min, max) of block bounds across the staging area."""
    if local_bounds is None:
        sentinel = np.array([np.inf, -np.inf] * 3)
    else:
        sentinel = local_bounds
    mins = yield from ctx.controller.communicator.allreduce(sentinel[0::2], op=MIN)
    maxs = yield from ctx.controller.communicator.allreduce(sentinel[1::2], op=MAX)
    if not np.all(np.isfinite(mins)):
        return None
    bounds = np.empty(6)
    bounds[0::2] = mins
    bounds[1::2] = maxs
    return bounds


def _bounds_array(bounds: Tuple[float, ...]) -> np.ndarray:
    return np.asarray(bounds, dtype=np.float64)


class IsoSurfaceScript(CatalystScript):
    """Iso-surface (optionally clipped) rendering — the Mandelbulb and
    Gray–Scott pipelines (Figs. 3, 5, 6, 8, 9).

    Colored by the contoured field (the default) the colormap spans
    ``min(isovalues)..max(isovalues)`` on every server, so the image does
    not depend on how many servers share the blocks. With a different
    ``color_field`` each server still normalises by its *local* scalar
    range (a global range would cost one more allreduce per iteration).
    """

    name = "iso-surface"

    def __init__(
        self,
        field: str,
        isovalues: Sequence[float],
        color_field: Optional[str] = None,
        clip: Optional[Tuple[Tuple[float, float, float], Tuple[float, float, float]]] = None,
        frequency: int = 1,
        cmap: str = "viridis",
    ):
        super().__init__(frequency)
        self.field = field
        self.isovalues = list(isovalues)
        self.color_field = color_field or field
        self.clip = clip
        self.cmap = cmap

    def run(self, ctx: RenderContext) -> Generator:
        pieces: List[PolyData] = []
        local_bounds: Optional[np.ndarray] = None
        for payload in ctx.blocks:
            if isinstance(payload, VirtualPayload):
                yield from ctx.charge(ctx.costs.contour(cells_of(payload)))
                continue
            if not isinstance(payload, ImageData):
                raise TypeError(f"iso pipeline expects ImageData, got {type(payload)}")
            yield from ctx.charge(ctx.costs.contour(payload.num_cells))
            piece = contour(
                payload, self.isovalues, self.field,
                interpolate_fields=[self.color_field] if self.color_field != self.field else None,
            )
            if self.clip is not None and piece.num_triangles:
                yield from ctx.charge(ctx.costs.clip(piece.num_triangles))
                piece = clip_polydata(piece, *self.clip)
            if piece.num_points:
                pieces.append(piece)
                b = _bounds_array(payload.bounds)
                local_bounds = b if local_bounds is None else _merge_bounds(local_bounds, b)

        surface = PolyData.concatenate(pieces)
        bounds = yield from _global_bounds(ctx, local_bounds)
        camera = ctx.camera or (Camera.fit(tuple(bounds)) if bounds is not None else None)
        yield from ctx.charge(ctx.costs.raster(ctx.width * ctx.height))
        if camera is not None and surface.num_triangles:
            # A server whose blocks cross only some of the levels must
            # not stretch the colormap over those alone.
            value_range = (
                (float(min(self.isovalues)), float(max(self.isovalues)))
                if self.color_field == self.field else None
            )
            local_image = rasterize(
                surface, camera, ctx.width, ctx.height,
                color_field=self.color_field, cmap=self.cmap, value_range=value_range,
            )
        else:
            local_image = CompositeImage.empty(ctx.width, ctx.height, brick_depth=float(ctx.rank))
        image = yield from ctx.composite(local_image, op="zbuffer")
        ctx.results["image"] = image
        ctx.results["local_triangles"] = surface.num_triangles
        return None


class DWIVolumeScript(CatalystScript):
    """Merge blocks + volume-render the unstructured mesh, colored by
    velocity — the Deep Water Impact pipeline (Figs. 1b, 7, 10)."""

    name = "dwi-volume"

    def __init__(
        self,
        field: str = "velocity",
        grid_dims: Tuple[int, int, int] = (48, 48, 48),
        frequency: int = 1,
        cmap: str = "coolwarm",
    ):
        super().__init__(frequency)
        self.field = field
        self.grid_dims = tuple(grid_dims)
        self.cmap = cmap

    def run(self, ctx: RenderContext) -> Generator:
        real_blocks: List[UnstructuredGrid] = []
        virtual_cells = 0
        for payload in ctx.blocks:
            if isinstance(payload, VirtualPayload):
                # Virtual DWI files declare bytes; ~50 bytes per cell.
                virtual_cells += payload.nbytes // 50
            elif isinstance(payload, UnstructuredGrid):
                real_blocks.append(payload)
            else:
                raise TypeError(f"dwi pipeline expects UnstructuredGrid, got {type(payload)}")

        total_cells = virtual_cells + sum(b.num_cells for b in real_blocks)
        yield from ctx.charge(ctx.costs.merge(total_cells))
        yield from ctx.charge(ctx.costs.volume(total_cells))
        yield from ctx.charge(ctx.costs.raster(ctx.width * ctx.height))

        local_bounds = None
        merged = None
        if real_blocks:
            merged = merge_blocks(MultiBlockDataSet(list(real_blocks)))
            if merged.num_points:
                local_bounds = _bounds_array(merged.bounds)
        bounds = yield from _global_bounds(ctx, local_bounds)

        if merged is not None and merged.num_points and bounds is not None:
            camera = ctx.camera or Camera.fit(tuple(bounds))
            sampled = resample_to_image(merged, self.grid_dims, fields=[self.field])
            local_image = volume_render(
                sampled, self.field, camera=camera,
                width=ctx.width, height=ctx.height, cmap=self.cmap,
            )
        else:
            local_image = CompositeImage.empty(ctx.width, ctx.height, brick_depth=float(ctx.rank))
        image = yield from ctx.composite(local_image, op="over")
        ctx.results["image"] = image
        ctx.results["local_cells"] = total_cells
        return None


def _merge_bounds(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[0::2] = np.minimum(a[0::2], b[0::2])
    out[1::2] = np.maximum(a[1::2], b[1::2])
    return out
