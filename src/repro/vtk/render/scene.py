"""Multi-representation local rendering (a minimal ParaView render view).

Real pipelines mix representations — e.g. Fig. 1b's volume rendering
plus surface geometry. :func:`render_scene` renders each item and
combines them with per-pixel depth-ordered 'over' compositing, so
translucent volumes correctly tint opaque geometry behind them and are
hidden by geometry in front.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.vtk.dataset import ImageData, PolyData
from repro.vtk.render.camera import Camera
from repro.vtk.render.image import CompositeImage
from repro.vtk.render.rasterizer import rasterize
from repro.vtk.render.volume import volume_render

__all__ = ["combine_pixelwise_over", "render_scene"]


def combine_pixelwise_over(a: CompositeImage, b: CompositeImage) -> CompositeImage:
    """'Over' compositing with per-pixel front/back ordering by depth."""
    a_front = np.where(np.isfinite(a.depth) | ~np.isfinite(b.depth), a.depth, np.inf) <= np.where(
        np.isfinite(b.depth), b.depth, np.inf
    )
    fa = a.rgba[..., 3:4]
    fb = b.rgba[..., 3:4]
    a_over_b = a.rgba + (1.0 - fa) * b.rgba
    b_over_a = b.rgba + (1.0 - fb) * a.rgba
    rgba = np.where(a_front[..., None], a_over_b, b_over_a)
    depth = np.minimum(a.depth, b.depth)
    return CompositeImage(rgba.astype(np.float32), depth, min(a.brick_depth, b.brick_depth))


def render_scene(
    items: Sequence[Tuple[str, Any, Dict[str, Any]]],
    camera: Optional[Camera] = None,
    width: int = 256,
    height: int = 256,
) -> CompositeImage:
    """Render a list of representations into one image.

    ``items`` entries are ``(kind, dataset, options)``:

    - ``("geometry", PolyData, {...rasterize kwargs})``
    - ``("volume", ImageData, {"field": name, ...volume_render kwargs})``

    When ``camera`` is None it is fitted to the union of the items'
    bounds.
    """
    if not items:
        return CompositeImage.empty(width, height)
    for kind, dataset, _ in items:
        if kind not in ("geometry", "volume"):
            raise ValueError(f"unknown representation kind {kind!r}")
        expected = PolyData if kind == "geometry" else ImageData
        if not isinstance(dataset, expected):
            raise TypeError(f"{kind} items need a {expected.__name__}")
    if camera is None:
        bounds = None
        for _, dataset, _ in items:
            b = np.asarray(dataset.bounds, dtype=np.float64)
            if bounds is None:
                bounds = b.copy()
            else:
                bounds[0::2] = np.minimum(bounds[0::2], b[0::2])
                bounds[1::2] = np.maximum(bounds[1::2], b[1::2])
        camera = Camera.fit(tuple(bounds))

    layers: List[CompositeImage] = []
    for kind, dataset, options in items:
        opts = dict(options)
        if kind == "geometry":
            layers.append(rasterize(dataset, camera, width, height, **opts))
        else:  # "volume": kinds were validated above
            field = opts.pop("field")
            layers.append(
                volume_render(dataset, field, camera=camera, width=width, height=height, **opts)
            )

    result = layers[0]
    for layer in layers[1:]:
        result = combine_pixelwise_over(result, layer)
    return result
