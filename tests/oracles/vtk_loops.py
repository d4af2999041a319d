"""The pre-vectorisation VTK kernels, kept verbatim as test oracles.

``rasterize_loop`` is the per-triangle z-buffer loop that
:func:`repro.vtk.render.rasterize` replaced by fragment batches and
depth-peeling rounds; ``contour_loop`` is the per-tet / per-case /
per-slot / per-edge loop (with its own copy of the marching-tetrahedra
tables) that :func:`repro.vtk.filters.contour` replaced by one table
lookup and a stable sort; ``volume_render_loop`` is the per-step
ray-marcher over whole ``(H, W)`` frames, sampling with SciPy's
``map_coordinates``, that :func:`repro.vtk.render.volume_render`
replaced by occupancy-first step chunks and a NumPy sampler. The
production kernels promise *byte-identical* output
(``tests/test_vtk_oracles.py``), so these bodies are the commit's they
were replaced in, moved not edited: only the public names changed and
``camera._forward`` / ``_pos`` / ``_right`` / ``_up`` became
``camera.forward`` / ``origin`` / ``right`` / ``up``. The two bugs the
production pair fixed on the way (a NaN voxel poisoning the default
``value_range``, a zero spacing for a planar mesh) are *kept* here:
inputs that reach them are outside the byte-equality contract.

``resample_loop`` is the one exception: its search is brute force, not
the ``cKDTree`` query it used to be. Every voxel gets the same squared
distance ``(dx*dx + dy*dy) + dz*dz`` to every mesh point, the nearest is
``np.argmin`` of those (the lowest index among exact ties) and the voxel
is inside when ``sqrt(s) <= cutoff`` — the rule
:func:`repro.vtk.filters.resample_to_image` promises, with nothing in
between. Where no two points are exactly equidistant from a voxel it is
SciPy's unbounded tree query, which ``tests/test_vtk_oracles.py`` checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.ndimage import map_coordinates

from repro.vtk.dataset import ImageData, PolyData, UnstructuredGrid
from repro.vtk.render.camera import Camera
from repro.vtk.render.color import colormap, opacity_ramp
from repro.vtk.render.image import CompositeImage

__all__ = ["contour_loop", "rasterize_loop", "resample_loop", "volume_render_loop"]


def rasterize_loop(
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
    light = camera.forward
    shade = 0.25 + 0.75 * np.abs(normals @ light)  # two-sided

    zbuf = image.depth
    rgba = image.rgba
    for t in range(len(tri)):
        i0, i1, i2 = tri[t]
        x0, x1, x2 = px[i0], px[i1], px[i2]
        y0, y1, y2 = py[i0], py[i1], py[i2]
        lo_x = max(int(np.floor(min(x0, x1, x2))), 0)
        hi_x = min(int(np.ceil(max(x0, x1, x2))), width - 1)
        lo_y = max(int(np.floor(min(y0, y1, y2))), 0)
        hi_y = min(int(np.ceil(max(y0, y1, y2))), height - 1)
        if hi_x < lo_x or hi_y < lo_y:
            continue
        denom = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2)
        if abs(denom) < 1e-12:
            continue
        xs = np.arange(lo_x, hi_x + 1)
        ys = np.arange(lo_y, hi_y + 1)
        gx, gy = np.meshgrid(xs, ys)
        w0 = ((y1 - y2) * (gx - x2) + (x2 - x1) * (gy - y2)) / denom
        w1 = ((y2 - y0) * (gx - x2) + (x0 - x2) * (gy - y2)) / denom
        w2 = 1.0 - w0 - w1
        inside = (w0 >= -1e-9) & (w1 >= -1e-9) & (w2 >= -1e-9)
        if not inside.any():
            continue
        z = w0 * depth[i0] + w1 * depth[i1] + w2 * depth[i2]
        sub_z = zbuf[lo_y : hi_y + 1, lo_x : hi_x + 1]
        visible = inside & (z < sub_z) & (z > 0)
        if not visible.any():
            continue
        c = (
            w0[..., None] * colors[i0]
            + w1[..., None] * colors[i1]
            + w2[..., None] * colors[i2]
        ) * shade[t]
        sub_rgba = rgba[lo_y : hi_y + 1, lo_x : hi_x + 1]
        sub_rgba[visible, :3] = c[visible] * opacity  # premultiplied
        sub_rgba[visible, 3] = opacity
        sub_z[visible] = z[visible]
    return image


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


def contour_loop(
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

    extra_corner_vals = {
        name: _cell_corner_values(np.asarray(image.field(name), dtype=np.float64))[idx]
        for name in extra_names
    }

    tri_points: List[np.ndarray] = []
    tri_extra: Dict[str, List[np.ndarray]] = {name: [] for name in extra_names}

    for tet in _TETS:
        tvals = vals[:, tet]  # (A, 4)
        # Strict inequality, consistent with the active-cell test
        # (min <= iso < max): an iso-value landing exactly on grid
        # values still yields the correct surface (e.g. axis-aligned
        # plane slices through lattice points).
        inside = tvals > iso
        case_ids = (
            inside[:, 0].astype(np.int64)
            | (inside[:, 1] << 1)
            | (inside[:, 2] << 2)
            | (inside[:, 3] << 3)
        )
        # Local tet corner coordinates (4, 3) in cell units.
        tet_corners = _CORNERS[tet].astype(np.float64)
        for case in range(1, 15):
            rows = np.nonzero(case_ids == case)[0]
            if rows.size == 0:
                continue
            rvals = tvals[rows]  # (R, 4)
            origins = cell_origin[rows]  # (R, 3)
            for tri in _CASES[case]:
                # Each vertex of this triangle lies on an edge of the tet.
                verts = []
                extra_at = {name: [] for name in extra_names}
                for edge_id in tri:
                    u, v = _EDGES[edge_id]
                    fu, fv = rvals[:, u], rvals[:, v]
                    denom = fv - fu
                    t = np.where(np.abs(denom) > 1e-300, (iso - fu) / denom, 0.5)
                    t = np.clip(t, 0.0, 1.0)
                    pu, pv = tet_corners[u], tet_corners[v]
                    pts = origins + pu + t[:, None] * (pv - pu)
                    verts.append(pts)
                    for name, cv in extra_corner_vals.items():
                        gu = cv[rows][:, tet[u]]
                        gv = cv[rows][:, tet[v]]
                        extra_at[name].append(gu + t * (gv - gu))
                tri_points.append(np.stack(verts, axis=1))  # (R, 3, 3)
                for name in extra_names:
                    tri_extra[name].append(np.stack(extra_at[name], axis=1))  # (R, 3)

    if not tri_points:
        return PolyData.empty()
    all_tris = np.concatenate(tri_points, axis=0)  # (T, 3verts, 3xyz)
    npts = all_tris.shape[0] * 3
    points = all_tris.reshape(npts, 3)
    # Grid-index space -> world space.
    points = np.asarray(image.origin) + points * np.asarray(image.spacing)
    triangles = np.arange(npts, dtype=np.int64).reshape(-1, 3)
    point_data = {field: np.full(npts, iso)}
    for name in extra_names:
        point_data[name] = np.concatenate(tri_extra[name], axis=0).reshape(npts)
    return PolyData(points, triangles, point_data)


def volume_render_loop(
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
    """Ray-march ``field`` of ``image_data`` into an RGBA+depth image."""
    volume = np.asarray(image_data.field(field), dtype=np.float64)
    if value_range is None:
        value_range = (float(volume.min()), float(volume.max()))
    vmin, vmax = value_range
    if camera is None:
        camera = Camera.fit(image_data.bounds, direction="z")

    b = image_data.bounds
    corners = np.array(
        [(b[i], b[2 + j], b[4 + k]) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    )
    view_corners = camera.world_to_view(corners)
    z_near = float(view_corners[:, 2].min())
    z_far = float(view_corners[:, 2].max())
    if z_far <= z_near:
        return CompositeImage.blank(width, height)

    # Build the ray sample grid in view space: (H, W, steps, 3).
    half_w, half_h = camera.view_width / 2, camera.view_height / 2
    xs = np.linspace(-half_w, half_w, width)
    ys = np.linspace(half_h, -half_h, height)  # row 0 = top
    zs = np.linspace(z_near, z_far, steps)
    dz = (z_far - z_near) / max(steps - 1, 1)

    # View -> world: p = pos + x*right + y*up + z*forward.
    gx, gy = np.meshgrid(xs, ys)  # (H, W)
    rgba = np.zeros((height, width, 4), dtype=np.float64)
    depth = np.full((height, width), np.inf, dtype=np.float64)
    transmittance = np.ones((height, width), dtype=np.float64)

    origin = np.asarray(image_data.origin)
    spacing = np.asarray(image_data.spacing)

    base = (
        camera.origin[None, None, :]
        + gx[..., None] * camera.right[None, None, :]
        + gy[..., None] * camera.up[None, None, :]
    )  # (H, W, 3)

    # Opacity per step scales with step length so results are
    # resolution-independent-ish.
    alpha_scale = dz / max((z_far - z_near) / 16.0, 1e-9)

    for si, z in enumerate(zs):
        world = base + z * camera.forward[None, None, :]  # (H, W, 3)
        idx = (world - origin) / spacing  # grid-index coordinates
        sample = map_coordinates(
            volume,
            [idx[..., 0].ravel(), idx[..., 1].ravel(), idx[..., 2].ravel()],
            order=1,
            mode="constant",
            cval=np.nan,
        ).reshape(height, width)
        valid = np.isfinite(sample)
        if not valid.any():
            continue
        alpha = np.zeros_like(sample)
        alpha[valid] = opacity_ramp(sample[valid], vmin, vmax, max_opacity, opacity_power)
        alpha = np.clip(alpha * alpha_scale, 0.0, 1.0)
        active = valid & (alpha > 1e-4) & (transmittance > 1e-3)
        if not active.any():
            continue
        color = np.zeros((height, width, 3))
        color[active] = colormap(sample[active], cmap, vmin, vmax)
        contrib = (transmittance * alpha)[..., None]
        rgba[..., :3] += np.where(active[..., None], color * contrib, 0.0)
        rgba[..., 3] += np.where(active, transmittance * alpha, 0.0)
        first_hit = active & ~np.isfinite(depth)
        depth[first_hit] = z
        transmittance = np.where(active, transmittance * (1.0 - alpha), transmittance)

    out = CompositeImage(rgba.astype(np.float32), depth.astype(np.float32))
    out.brick_depth = z_near
    return out


def resample_loop(
    grid: UnstructuredGrid,
    dims: Tuple[int, int, int],
    fields: Optional[Sequence[str]] = None,
    bounds: Optional[Sequence[float]] = None,
    cutoff_factor: float = 2.0,
) -> ImageData:
    """Sample ``grid``'s point fields onto a ``dims`` regular grid.

    ``bounds`` default to the mesh bounds; voxels farther than
    ``cutoff_factor`` x the mean voxel spacing from any mesh point are
    set to 0 (outside the mesh).
    """
    if len(dims) != 3 or any(d < 2 for d in dims):
        raise ValueError(f"dims must be three values >= 2, got {dims}")
    names = list(fields) if fields is not None else list(grid.point_data)
    for name in names:
        if name not in grid.point_data:
            raise KeyError(f"point field {name!r} not in grid")

    b = tuple(bounds) if bounds is not None else grid.bounds
    origin = (b[0], b[2], b[4])
    spacing = tuple(
        (b[2 * i + 1] - b[2 * i]) / (dims[i] - 1) if dims[i] > 1 else 1.0
        for i in range(3)
    )
    image = ImageData(dims=tuple(dims), origin=origin, spacing=spacing)
    if grid.num_points == 0:
        for name in names:
            image.set_field(name, np.zeros(dims))
        return image

    targets = image.point_coords()
    points = np.asarray(grid.points, dtype=np.float64)
    cutoff = cutoff_factor * float(np.mean(spacing))
    inside = np.zeros(len(targets), dtype=bool)
    nearest = np.zeros(len(targets), dtype=np.intp)
    for start in range(0, len(targets), 64):  # blocks of voxels, every point each
        block = slice(start, start + 64)
        dx, dy, dz = (targets[block, a, None] - points[:, a] for a in range(3))
        with np.errstate(over="ignore"):  # a point at 1e300 is at distance inf
            s = dx * dx
            s += dy * dy
            s += dz * dz  # (dx*dx + dy*dy) + dz*dz
        nearest[block] = np.argmin(s, axis=1)  # the first minimum: the lowest index
        inside[block] = np.sqrt(s[np.arange(len(s)), nearest[block]]) <= cutoff
    for name in names:
        source = np.asarray(grid.point_data[name], dtype=np.float64)
        sampled = np.where(inside, source[nearest], 0.0)
        image.set_field(name, sampled.reshape(dims))
    return image
