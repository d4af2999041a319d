"""Volume rendering by orthographic ray marching.

Rays are cast through the camera's view window; the scalar field is
sampled trilinearly (``scipy.ndimage.map_coordinates``) at ``steps``
depths between the brick's nearest and farthest corner and composited
front-to-back with a colormap + opacity transfer function. The output
depth buffer records where each ray first accumulated significant
opacity, and ``brick_depth`` records the volume's nearest extent — both
of which IceT's ordered compositing uses across ranks.

The kernel is data-parallel over the *samples that can matter*, not a
loop over whole ``(H, W)`` slices:

- **Footprint clip.** The brick's eight corners are projected to view
  space; only the rays of the pixel rectangle that bounds them, padded
  by one pixel pitch against rounding at its edge, are marched. Every
  other pixel keeps the blank value. This is exact because the camera
  is orthographic: all rays are parallel, so the rays that can meet a
  convex brick are those inside the projection of its corners. A
  perspective camera would need the clip per depth.
- **Ray chunks.** The footprint's rays are cut into chunks of about
  ``_SAMPLE_BUDGET`` samples (rays x steps); a chunk is sampled at all
  its steps with one ``map_coordinates`` call, so a ray lives in exactly
  one chunk and nothing is carried between chunks.
- **Transmittance by scan.** A sample inside the volume with
  ``alpha > 1e-4`` multiplies its ray's transmittance by ``1 - alpha``,
  any other by exactly ``1.0``; ``np.multiply.accumulate`` along the
  step axis gives the transmittance *before* every sample. The product
  never increases, so ``T > 1e-3`` on it is early ray termination as a
  mask.
- **Compressed shading.** The colormap runs on the active samples only;
  their contributions are summed per ray by ``np.bincount``, which adds
  its weights one by one in array order — for a row-major ``(ray,
  step)`` mask, ascending step.

**Bit-identity contract.** The image is byte-for-byte what marching
every pixel of the frame one step at a time gives
(``volume_render_loop`` in ``tests/oracles/vtk_loops.py``, compared in
``tests/test_vtk_oracles.py``): every per-sample expression is that
loop's in that loop's order, multiplying by ``1.0`` is exact, and the
product scan and the weighted count are both *sequential*
(``r[i] = r[i-1] * a[i]``, ``out[n] += w[i]``). That is why there is no
``np.sum`` or ``np.prod`` over the step axis: NumPy reduces pairwise,
which is a different float order and a different last bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.ndimage import map_coordinates

from repro.vtk.dataset import ImageData
from repro.vtk.render.camera import Camera
from repro.vtk.render.color import colormap, opacity_ramp
from repro.vtk.render.image import CompositeImage

__all__ = ["volume_render"]

# Samples (rays x steps) marched at once; bounds the kernel's transient
# memory (a chunk is never less than one whole ray).
_SAMPLE_BUDGET = 1 << 15


def volume_render(
    image_data: ImageData,
    field: str,
    camera: Optional[Camera] = None,
    width: int = 256,
    height: int = 256,
    steps: int = 64,
    cmap: str = "coolwarm",
    value_range: Optional[Tuple[float, float]] = None,
    max_opacity: float = 0.9,
    opacity_power: float = 1.5,
) -> CompositeImage:
    """Ray-march ``field`` of ``image_data`` into an RGBA+depth image.

    Non-finite voxels are holes: samples they touch are skipped, and the
    default ``value_range`` is taken over the finite voxels.
    """
    volume = np.asarray(image_data.field(field), dtype=np.float64)
    if camera is None:
        camera = Camera.fit(image_data.bounds, direction="z")

    b = image_data.bounds
    corners = np.array(
        [(b[i], b[2 + j], b[4 + k]) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    )
    view_x, view_y, view_z = camera.world_to_view(corners).T
    z_near = float(view_z.min())
    z_far = float(view_z.max())
    if z_far <= z_near:
        return CompositeImage.blank(width, height)
    image = CompositeImage.blank(width, height, brick_depth=z_near)

    if value_range is None:
        value_range = (float(volume.min()), float(volume.max()))
        if not np.isfinite(value_range).all():
            finite = volume[np.isfinite(volume)]
            if finite.size == 0:
                return image
            value_range = (float(finite.min()), float(finite.max()))
    vmin, vmax = value_range

    half_w, half_h = camera.view_width / 2, camera.view_height / 2
    xs = np.linspace(-half_w, half_w, width)
    ys = np.linspace(half_h, -half_h, height)  # row 0 = top
    zs = np.linspace(z_near, z_far, steps)
    dz = (z_far - z_near) / max(steps - 1, 1)

    # The pixel rectangle under the brick (contiguous: xs and ys are monotone).
    pad_x = camera.view_width / max(width - 1, 1)
    pad_y = camera.view_height / max(height - 1, 1)
    cols = np.flatnonzero((xs >= view_x.min() - pad_x) & (xs <= view_x.max() + pad_x))
    rows = np.flatnonzero((ys >= view_y.min() - pad_y) & (ys <= view_y.max() + pad_y))
    if cols.size == 0 or rows.size == 0:
        return image
    window = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))

    # View -> world: p = pos + x*right + y*up + z*forward, one component
    # at a time so that every array below has the step axis innermost.
    gx, gy = (g.reshape(-1, 1) for g in np.meshgrid(xs[window[1]], ys[window[0]]))  # (R, 1)
    n_rays = len(gx)
    rgba = np.zeros((n_rays, 4), dtype=np.float64)
    depth = np.full(n_rays, np.inf, dtype=np.float64)

    # Opacity per step scales with step length so results are
    # resolution-independent-ish.
    alpha_scale = dz / max((z_far - z_near) / 16.0, 1e-9)

    per_chunk = max(_SAMPLE_BUDGET // max(steps, 1), 1)
    for start in range(0, n_rays, per_chunk):
        rays = slice(start, start + per_chunk)
        x, y = gx[rays], gy[rays]
        idx = np.empty((3, len(x), steps))  # grid-index coordinates
        for c in range(3):
            base = camera.origin[c] + x * camera.right[c] + y * camera.up[c]
            world = base + zs * camera.forward[c]  # (R, S)
            idx[c] = (world - image_data.origin[c]) / image_data.spacing[c]
        sample = map_coordinates(
            volume, idx.reshape(3, -1), order=1, mode="constant", cval=np.nan
        ).reshape(idx.shape[1:])
        alpha = np.clip(
            opacity_ramp(sample, vmin, vmax, max_opacity, opacity_power) * alpha_scale, 0.0, 1.0
        )
        opaque = np.isfinite(sample) & (alpha > 1e-4)
        if not opaque.any():
            continue

        # Column s of the scan is the transmittance before step s.
        through = np.ones((len(x), steps + 1))
        through[:, 1:][opaque] = 1.0 - alpha[opaque]
        np.multiply.accumulate(through, axis=1, out=through)
        active = opaque & (through[:, :-1] > 1e-3)

        # Row-major, so a ray's active samples are in ascending step
        # order, which is the order ``bincount`` adds its weights in.
        ray, step = np.nonzero(active)
        contrib = through[ray, step] * alpha[ray, step]
        color = colormap(sample[ray, step], cmap, vmin, vmax) * contrib[:, None]
        for c, weights in enumerate((*color.T, contrib)):
            rgba[rays, c] = np.bincount(ray, weights=weights, minlength=len(x))
        depth[rays] = np.where(active.any(axis=1), zs[active.argmax(axis=1)], np.inf)

    shape = (len(rows), len(cols))
    image.rgba[window] = rgba.reshape(shape + (4,))
    image.depth[window] = depth.reshape(shape)
    return image
