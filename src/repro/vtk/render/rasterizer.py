"""Triangle rasterization with a z-buffer.

Renders a :class:`~repro.vtk.dataset.PolyData` through a
:class:`~repro.vtk.render.camera.Camera` into a
:class:`~repro.vtk.render.image.CompositeImage`; Lambertian shading
against a headlight; color from a per-point scalar field via a
colormap, interpolated across the triangle.

The kernel is data-parallel over *fragments* (the pixels of a triangle's
clamped bounding box), not a loop over triangles. All triangles are
bounded and culled at once (a culled one owns zero fragments); in
triangle order they are cut into batches of about ``_FRAGMENT_BUDGET``
fragments, and one batch is expanded into flat arrays on which
barycentrics, depth and color are evaluated in single NumPy expressions.
Visibility is then resolved in *rounds*: round k holds the k-th covering
fragment of every pixel (in triangle order, so at most one per pixel)
and applies ``z < zbuf`` to all of them in one step.

**Inside-only evaluation.** On an iso-surface about four in five
fragments fail the barycentric test (a small triangle's box of ~50
pixels is mostly corners). Only the three barycentrics are evaluated on
the whole box; the batch is then compressed to the fragments inside
their triangle, and depth, pixel index, the ``z > 0`` test, the sorts
and the rounds see the compressed arrays. This is still the loop's
arithmetic: every expression is elementwise, so a fragment's value does
not depend on which other fragments share its array, and the compression
keeps fragment order, so the stable sorts replay the same per-pixel
sequence.

**Bit-identity contract.** The image is byte-for-byte what drawing the
triangles one after another into a float32 z-buffer gives
(``tests/oracles/vtk_loops.py``, compared in ``tests/test_vtk_oracles.py``):
per-fragment arithmetic is that loop's expressions in that loop's
order, and the rounds replay its per-pixel sequence of depth tests —
including a later coplanar fragment losing the ``<`` tie, and the
float32 rounding of a stored depth deciding the next test.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.vtk.dataset import PolyData
from repro.vtk.render.camera import Camera
from repro.vtk.render.color import colormap
from repro.vtk.render.image import CompositeImage

__all__ = ["rasterize"]

# Fragments expanded at once (a batch ends at the first triangle that
# starts past a multiple of this); bounds the kernel's transient memory.
_FRAGMENT_BUDGET = 1 << 17


def rasterize(
    poly: PolyData,
    camera: Camera,
    width: int = 256,
    height: int = 256,
    color_field: Optional[str] = None,
    cmap: str = "viridis",
    value_range: Optional[Tuple[float, float]] = None,
    base_color: Tuple[float, float, float] = (0.8, 0.8, 0.85),
    opacity: float = 1.0,
) -> CompositeImage:
    """Render opaque (or uniformly translucent) triangles."""
    image = CompositeImage.blank(width, height)
    if poly.num_triangles == 0:
        return image
    bad = int((~np.isfinite(poly.points).all(axis=1)).sum())
    if bad:
        raise ValueError(f"cannot rasterize: {bad} of {poly.num_points} points are not finite")

    view = camera.world_to_view(poly.points)
    px, py, depth = camera.view_to_pixels(view, width, height)
    image.brick_depth = float(depth.min())

    # Per-vertex colors.
    if color_field is not None:
        values = np.asarray(poly.point_data[color_field], dtype=np.float64)
        if value_range is None:
            value_range = (float(values.min()), float(values.max()))
        colors = colormap(values, cmap, *value_range)
    else:
        colors = np.broadcast_to(np.asarray(base_color), (poly.num_points, 3))

    # Lambert shading per triangle against a headlight (view direction).
    tri = poly.triangles
    p = poly.points
    normals = np.cross(p[tri[:, 1]] - p[tri[:, 0]], p[tri[:, 2]] - p[tri[:, 0]])
    norms = np.linalg.norm(normals, axis=1)
    norms[norms == 0] = 1.0
    normals /= norms[:, None]
    shade = 0.25 + 0.75 * np.abs(normals @ camera.forward)  # two-sided

    # Bound and cull every triangle: clamp the bounding box to the image
    # (in float, so far-off-screen coordinates never reach the int cast);
    # empty boxes and degenerate (zero-area on screen) triangles get no
    # fragments.
    tx, ty = px[tri], py[tri]  # (T, 3)
    lo_x = np.clip(np.floor(tx.min(axis=1)), 0, width).astype(np.int64)
    hi_x = np.clip(np.ceil(tx.max(axis=1)), -1, width - 1).astype(np.int64)
    lo_y = np.clip(np.floor(ty.min(axis=1)), 0, height).astype(np.int64)
    hi_y = np.clip(np.ceil(ty.max(axis=1)), -1, height - 1).astype(np.int64)
    (x0, x1, x2), (y0, y1, y2) = tx.T, ty.T
    y12, x21, y20, x02 = y1 - y2, x2 - x1, y2 - y0, x0 - x2
    denom = y12 * x02 + x21 * (y0 - y2)
    box_w = hi_x - lo_x + 1
    drawn = (box_w > 0) & (hi_y >= lo_y) & ~(np.abs(denom) < 1e-12)
    count = np.where(drawn, box_w * (hi_y - lo_y + 1), 0)
    first = np.cumsum(count) - count  # fragment offset of each triangle
    cuts = np.flatnonzero(np.diff(first // _FRAGMENT_BUDGET)) + 1

    zbuf = image.depth.reshape(-1)
    rgba = image.rgba.reshape(-1, 4)
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(tri)]):
        # Expand triangles a..b into fragments, row-major per box.
        n = count[a:b]
        t = np.repeat(np.arange(a, b), n)  # fragment -> triangle
        in_box = np.arange(n.sum()) - np.repeat(first[a:b] - first[a], n)
        row, col = np.divmod(in_box, box_w[t])
        gx, gy = lo_x[t] + col, lo_y[t] + row
        dx, dy, den = gx - x2[t], gy - y2[t], denom[t]
        w0 = (y12[t] * dx + x21[t] * dy) / den
        w1 = (y20[t] * dx + x02[t] * dy) / den
        w2 = 1.0 - w0 - w1
        # Most of a box is outside its triangle: only the inside fragments
        # get a depth, a pixel index and a place in the rounds below.
        inside = ((w0 >= -1e-9) & (w1 >= -1e-9) & (w2 >= -1e-9)).nonzero()[0]
        if inside.size == 0:
            continue
        w0, w1, w2, t = w0[inside], w1[inside], w2[inside], t[inside]
        z = w0 * depth[tri[t, 0]] + w1 * depth[tri[t, 1]] + w2 * depth[tri[t, 2]]
        pixel = gy[inside] * width + gx[inside]
        cover = (z > 0).nonzero()[0]
        if cover.size == 0:
            continue

        # rank = how many earlier fragments of the batch cover the same
        # pixel (a stable sort keeps triangle order within a pixel).
        by_pixel = cover[np.argsort(pixel[cover], kind="stable")]
        same = pixel[by_pixel]
        heads = np.flatnonzero(np.r_[True, same[1:] != same[:-1]])
        rank = np.arange(same.size) - np.repeat(heads, np.diff(np.r_[heads, same.size]))
        by_round = by_pixel[np.argsort(rank, kind="stable")]
        ends = np.cumsum(np.bincount(rank))
        for lo, hi in zip(np.r_[0, ends[:-1]], ends):
            f = by_round[lo:hi]  # at most one fragment per pixel
            f = f[z[f] < zbuf[pixel[f]]]
            at, v = pixel[f], tri[t[f]]
            c = (
                w0[f, None] * colors[v[:, 0]]
                + w1[f, None] * colors[v[:, 1]]
                + w2[f, None] * colors[v[:, 2]]
            ) * shade[t[f], None]
            rgba[at, :3] = c * opacity  # premultiplied
            rgba[at, 3] = opacity
            zbuf[at] = z[f]
    return image
