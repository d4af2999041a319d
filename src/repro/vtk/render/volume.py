"""Volume rendering by orthographic ray marching.

Rays are cast through the camera's view window; the scalar field is
sampled trilinearly (:func:`sample_linear`: SciPy's order-1
``map_coordinates``, in NumPy) at ``steps`` depths between the brick's
nearest and farthest corner and composited front-to-back with a
colormap + opacity transfer function. The output
depth buffer records where each ray first accumulated significant
opacity, and ``brick_depth`` records the volume's nearest extent — both
of which IceT's ordered compositing uses across ranks.

The kernel is data-parallel over the *samples that can matter*, not a
loop over whole ``(H, W)`` slices, and it is **occupancy-first**: a
cheap conservative test decides where the exact kernel runs, the exact
kernel (the sampler, the transfer function, the product scan,
``bincount``) decides everything else. A resampled mesh is mostly
exterior zeros, so most rays and most samples are rejected before any
interpolation.

- **Hot points, flagged cells.** A lattice point is *hot* when it is
  finite and ``alpha(v - m) > 1e-4`` or ``alpha(v + m) > 1e-4``, where
  ``alpha`` is literally the expression applied to a sample and ``m`` a
  margin of ``_MARGIN_ULPS`` ulps of the largest finite magnitude among
  the voxels and the value range. Cell ``(i, j, k)`` — the samples whose
  grid index floors to it — is *flagged* when one of its eight corners
  ``(i..i+1, j..j+1, k..k+1)`` is hot. The flags have the volume's
  shape: the last layer along an axis is the cell that a sample exactly
  on the last lattice plane floors into (only its own points are its
  corners).
- **Ray rejection.** Each flagged cell's lower corner is projected to
  pixel coordinates and widened to the cell's whole projection plus
  ``_RAY_PAD`` pixels against rounding at its edge; the union of these
  rectangles (:func:`repro.vtk.occupancy.box_union`) is the set of rays
  marched. Every other pixel keeps the blank value; with no ray to
  march the result is :meth:`CompositeImage.empty` — final, no storage.
- **Ray chunks.** The marched rays are cut into chunks of about
  ``_SAMPLE_BUDGET`` samples (rays x steps); a ray lives in exactly one
  chunk and nothing is carried between chunks.
- **Sample rejection.** A chunk's grid-index coordinates are computed
  for all its steps, floored and clamped into the lattice, and looked up
  in the cell flags; only the flagged coordinates go through
  ``sample_linear`` (one call per chunk) and the transfer function.
- **Transmittance by scan.** An opaque sample (finite, ``alpha > 1e-4``)
  multiplies its ray's transmittance by ``1 - alpha``, any other by
  exactly ``1.0``: the opaque ones are scattered into a dense ``(rays,
  steps + 1)`` array of ones and ``np.multiply.accumulate`` along the
  step axis gives the transmittance *before* every sample. The product
  never increases, so ``T > 1e-3`` on it is early ray termination as a
  mask.
- **Compressed shading.** The colormap runs on the active samples only;
  their contributions are summed per ray by ``np.bincount``, which adds
  its weights one by one in array order — ascending flat ``(ray, step)``
  position, so ascending step within a ray.

**Why the skip is sound.** A rejected sample must be one the dense march
would not have found opaque. (a) An order-1 sample is a convex
combination of its cell's eight corners up to a dozen roundings, so it
lies within ``m`` of the corners' range. (b) ``opacity_ramp`` is
monotone in the value — increasing for ``opacity_power > 0``, flat for
``0``, decreasing below — and so is everything applied after it; testing
*both* ends ``v - m`` and ``v + m`` covers either direction. Hence a
cell whose finite corners are all cold cannot produce ``alpha > 1e-4``.
(c) A non-finite corner can only make the sample non-finite, which is
dropped anyway. (d) A coordinate outside the lattice is clamped onto a
boundary cell by the lookup but samples ``NaN`` whatever the flag says.
(e) The camera is orthographic: a ray's view-space ``(x, y)``
is that of every point on it, so a ray holds a sample of a cell only if
its pixel lies in the cell's projected rectangle. The tests in
``tests/test_vtk_oracles.py`` check the superset property directly
(every opaque sample of the dense loop is among the coordinates handed
to ``sample_linear``) on top of byte equality.

**What the bound assumes.** *Orthographic*: a perspective camera would
need each cell's rectangle from its eight projected corners (the
projection is no longer affine) — the rest carries over. *Monotone
ramp*: a transfer function with interior maxima would need each cell's
value *interval* ``[min - m, max + m]`` over its corners tested against
the function's maximum on that interval (a min/max pyramid and a
per-interval bound), not the two end points of each corner.

**Bit-identity contract.** The image is byte-for-byte what marching
every pixel of the frame one step at a time gives
(``volume_render_loop`` in ``tests/oracles/vtk_loops.py``, compared in
``tests/test_vtk_oracles.py``): every per-sample expression is that
loop's in that loop's order, the sampler is SciPy's byte for byte (a
seeded fuzz there holds it to ``map_coordinates``, which the loop
samples with), multiplying by ``1.0`` is exact, and the product scan
and the weighted count are both *sequential* (``r[i] = r[i-1] * a[i]``,
``out[n] += w[i]``). That is why there is no ``np.sum`` or ``np.prod``
over the step axis: NumPy reduces pairwise, which is a different float
order and a different last bit.

The chunk loop is also the ``py_calls_m`` of the volume workload:
inside it ufuncs are called directly (``np.clip`` and ``np.flatnonzero``
are several profiled calls each) and the camera basis, read through
properties, is hoisted out.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.vtk.dataset import ImageData
from repro.vtk.occupancy import box_union
from repro.vtk.render.camera import Camera
from repro.vtk.render.color import colormap, opacity_ramp
from repro.vtk.render.image import CompositeImage

__all__ = ["volume_render"]

# Samples (rays x steps) marched at once; bounds the kernel's transient
# memory (a chunk is never less than one whole ray).
_SAMPLE_BUDGET = 1 << 15
# A sample contributes when its opacity exceeds this (strictly).
_ALPHA_FLOOR = 1e-4
# Rounding margin of the hot-point test, in ulps of the largest magnitude
# in play: an order-1 sample is a convex combination of its cell's
# corners up to ~a dozen roundings.
_MARGIN_ULPS = 64
# Pixels added all round a flagged cell's projected rectangle.
_RAY_PAD = 1.0


def sample_linear(volume: np.ndarray, coordinates: np.ndarray) -> np.ndarray:
    """Order-1 samples of ``volume`` at ``coordinates`` (``(3, N)`` grid
    indices), as ``scipy.ndimage.map_coordinates(volume, coordinates,
    order=1, mode="constant", cval=nan)`` computes them.

    Per axis the lower neighbour is the floor, clamped into the lattice,
    and the upper one the next plane — mirrored back to ``n - 2`` at the
    last plane (``0`` on a one-plane axis): its weight is zero there, but
    an inf in it still makes the sample NaN. The weights are SciPy's
    ``(1 - t, 1 - (1 - t))``, each corner term is ``((v * w0) * w1) *
    w2`` and the eight are added to ``0.0`` one by one, last axis
    fastest. A coordinate outside ``[0, n - 1]`` (or NaN) samples NaN.
    Every bit is SciPy's except a NaN's payload, which x86 takes from
    whichever operand NumPy's loop puts first. Call under
    ``np.errstate(invalid="ignore")``: ``inf * 0`` is NaN, as in SciPy.
    """
    _, ny, nz = volume.shape
    coordinates = np.ascontiguousarray(coordinates)  # a contiguous row per axis; a gather is not
    top = np.array(volume.shape)[:, None] - 1
    low = np.fmin(np.fmax(np.floor(coordinates), 0.0), top).astype(np.intp)
    high = np.where(low < top, low + 1, np.maximum(top - 1, 0))
    lower = 1.0 - (coordinates - low)
    weights = (lower, 1.0 - lower)
    stride = np.array([ny * nz, nz, 1])[:, None]  # of the C-ordered copy below
    ends = (low * stride, high * stride)
    flat = np.ascontiguousarray(volume).ravel()
    sample = np.zeros(coordinates.shape[1])
    for a in (0, 1):  # N-long arrays, one corner at a time: no (8, N) temporaries
        for b in (0, 1):
            row = ends[a][0] + ends[b][1]
            for c in (0, 1):
                term = flat[row + ends[c][2]]
                term *= weights[a][0]
                term *= weights[b][1]
                term *= weights[c][2]
                sample += term
    inside = (coordinates >= 0.0) & (coordinates <= top)
    sample[~(inside[0] & inside[1] & inside[2])] = np.nan
    return sample


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
    view_z = camera.world_to_view(corners)[:, 2]
    z_near = float(view_z.min())
    z_far = float(view_z.max())
    if z_far <= z_near:
        return CompositeImage.empty(width, height)

    def nothing() -> CompositeImage:
        # The early returns below: no storage, but the brick's ordering key.
        # (Set, not passed: flowcheck resolves calls by bare name, and what
        # goes into an ``empty`` would come out of every ``np.empty``.)
        frame = CompositeImage.empty(width, height)
        frame.brick_depth = z_near
        return frame

    finite = np.isfinite(volume)
    if value_range is None:
        if not finite.any():
            return nothing()
        value_range = (
            float(volume.min(where=finite, initial=np.inf)),
            float(volume.max(where=finite, initial=-np.inf)),
        )
    vmin, vmax = value_range

    half_w, half_h = camera.view_width / 2, camera.view_height / 2
    xs = np.linspace(-half_w, half_w, width)
    ys = np.linspace(half_h, -half_h, height)  # row 0 = top
    zs = np.linspace(z_near, z_far, steps)
    dz = (z_far - z_near) / max(steps - 1, 1)

    # Opacity per step scales with step length so results are
    # resolution-independent-ish.
    alpha_scale = dz / max((z_far - z_near) / 16.0, 1e-9)

    def alpha_of(values: np.ndarray) -> np.ndarray:
        # minimum(maximum()) is np.clip, NaN included, without its wrappers.
        ramp = opacity_ramp(values, vmin, vmax, max_opacity, opacity_power)
        return np.minimum(np.maximum(ramp * alpha_scale, 0.0), 1.0)

    # (1) Hot lattice points, flagged cells: cells[i, j, k] covers the
    # points (i..i+1, j..j+1, k..k+1); the last layer of each axis is the
    # cell a sample exactly on the last lattice plane floors into.
    reach = [abs(v) for v in (vmin, vmax) if np.isfinite(v)]
    margin = _MARGIN_ULPS * np.finfo(np.float64).eps * np.abs(volume).max(
        where=finite, initial=max(reach, default=0.0)
    )
    cells = finite & (
        (alpha_of(volume - margin) > _ALPHA_FLOOR) | (alpha_of(volume + margin) > _ALPHA_FLOOR)
    )
    cells[:-1] |= cells[1:]
    cells[:, :-1] |= cells[:, 1:]
    cells[:, :, :-1] |= cells[:, :, 1:]
    flagged = np.argwhere(cells)
    if len(flagged) == 0:
        return nothing()

    # (2) Rays under a flagged cell: the cell's lower corner projected,
    # widened to the cell's whole projection and by one pixel pitch.
    origin, right, up, forward = camera.origin, camera.right, camera.up, camera.forward
    grid_origin, spacing = np.asarray(image_data.origin), np.asarray(image_data.spacing)
    pitch = (camera.view_height / max(height - 1, 1), camera.view_width / max(width - 1, 1))
    view = camera.world_to_view(grid_origin + flagged * spacing)
    corner = np.column_stack([half_h - view[:, 1], view[:, 0] + half_w]) / pitch  # (row, col)
    edges = np.column_stack([-spacing * up, spacing * right]) / pitch  # of a cell, per lattice axis
    pixels = box_union(
        corner + np.minimum(edges, 0.0).sum(axis=0) - _RAY_PAD,
        corner + np.maximum(edges, 0.0).sum(axis=0) + _RAY_PAD,
        (height, width),
    ).reshape(-1).nonzero()[0]
    n_rays = len(pixels)
    if n_rays == 0:
        return nothing()

    # View -> world: p = pos + x*right + y*up + z*forward, one component
    # at a time so that every array below has the step axis innermost.
    gx = xs[pixels % width].reshape(-1, 1)  # (R, 1)
    gy = ys[pixels // width].reshape(-1, 1)
    rgba = np.zeros((n_rays, 4), dtype=np.float64)
    depth = np.full(n_rays, np.inf, dtype=np.float64)
    top = [n - 1 for n in volume.shape]

    per_chunk = max(_SAMPLE_BUDGET // max(steps, 1), 1)
    # One errstate for the render: ``inf * 0`` in a sample is NaN, silently.
    with np.errstate(invalid="ignore"):
        for start in range(0, n_rays, per_chunk):
            rays = slice(start, start + per_chunk)
            x, y = gx[rays], gy[rays]
            idx = np.empty((3, x.shape[0], steps))  # grid-index coordinates
            cell = np.empty(idx.shape, dtype=np.intp)  # ... floored and clamped into the lattice
            for c in range(3):
                base = origin[c] + x * right[c] + y * up[c]
                world = base + zs * forward[c]  # (R, S)
                idx[c] = (world - grid_origin[c]) / spacing[c]
                # fmax/fmin: a NaN index (zero spacing) clamps too; the cast truncates.
                cell[c] = np.fmin(np.fmax(idx[c], 0.0), top[c])

            # (3) Samples in a flagged cell, as flat (ray, step) positions.
            flat = cells[cell[0], cell[1], cell[2]].reshape(-1).nonzero()[0]
            if flat.size == 0:
                continue
            sample = sample_linear(volume, idx.reshape(3, -1)[:, flat])
            alpha = alpha_of(sample)
            opaque = (np.isfinite(sample) & (alpha > _ALPHA_FLOOR)).nonzero()[0]
            if opaque.size == 0:
                continue
            flat, sample, alpha = flat[opaque], sample[opaque], alpha[opaque]
            ray = flat // steps

            # Column s of the scan is the transmittance before step s; the
            # scan itself stays dense so that its float order is the loop's.
            through = np.ones((x.shape[0], steps + 1))
            slot = flat + ray  # of (ray, step) in the (R, S + 1) scan
            scan = through.reshape(-1)
            scan[slot + 1] = 1.0 - alpha
            np.multiply.accumulate(through, axis=1, out=through)
            before = scan[slot]
            active = (before > 1e-3).nonzero()[0]

            # Ascending flat position, so a ray's active samples are in
            # ascending step order, which is the order ``bincount`` adds its
            # weights in.
            ray = ray[active]
            contrib = before[active] * alpha[active]
            color = colormap(sample[active], cmap, vmin, vmax) * contrib[:, None]
            for c, weights in enumerate((*color.T, contrib)):
                rgba[rays, c] = np.bincount(ray, weights=weights, minlength=x.shape[0])
            first = np.ones(ray.shape, dtype=bool)  # a ray's first active sample
            first[1:] = ray[1:] != ray[:-1]
            hit = ray[first]
            depth[start + hit] = zs[flat[active][first] - hit * steps]

    image = CompositeImage.blank(width, height, brick_depth=z_near)
    image.rgba.reshape(-1, 4)[pixels] = rgba
    image.depth.reshape(-1)[pixels] = depth
    return image
