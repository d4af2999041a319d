"""Byte equality of the vectorised VTK kernels with the loops they replaced.

``rasterize`` (fragment batches + depth-peeling rounds), ``contour``
(flat case table + stable sort), ``volume_render`` (occupancy-first ray
and sample rejection, ray chunks, transmittance scan) and
``resample_to_image`` (a lattice stencil over each point's cutoff box)
promise the exact bytes of the loops kept in
``tests/oracles/vtk_loops.py``. No tolerance anywhere in this file: a
last-bit difference is a failure (only a NaN's payload is not compared,
in the sampler's fuzz). The two NumPy kernels that replaced
SciPy are held to it as well: ``sample_linear`` to
``scipy.ndimage.map_coordinates`` (fuzzed, and through every volume
image, since ``volume_render_loop`` samples with SciPy), the stencil to
SciPy's unbounded ``cKDTree`` query on inputs without exact ties.

The two occupancy tests are also checked directly, as what they claim
to be — supersets: every sample the dense loop finds opaque is among
the coordinates ``volume_render`` hands to ``sample_linear``, and every
voxel within the cutoff of a mesh point is in that point's box
(``cutoff_boxes``), the only voxels the stencil looks at.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.vtk.filters.resample as resample_module
import repro.vtk.render.rasterizer as rasterizer_module
import repro.vtk.render.volume as volume_module
import tests.oracles.vtk_loops as loops_module
from repro.apps import DWIDataset, GrayScottParams, GrayScottSolver
from repro.vtk import ImageData, MultiBlockDataSet, PolyData, UnstructuredGrid
from repro.vtk.filters import contour, merge_blocks, resample_to_image
from repro.vtk.render import Camera, rasterize, volume_render
from tests.oracles.vtk_loops import (
    contour_loop,
    rasterize_loop,
    resample_loop,
    volume_render_loop,
)

RENDER_MODES = {
    "colored": {"color_field": "s", "cmap": "coolwarm"},
    "flat": {},
    "translucent": {"base_color": (1.0, 0.5, 0.2), "opacity": 0.4},
}


def assert_same_image(got, want):
    assert got.rgba.tobytes() == want.rgba.tobytes()
    assert got.depth.tobytes() == want.depth.tobytes()
    assert got.brick_depth == want.brick_depth


def assert_same_poly(got, want):
    assert got.points.tobytes() == want.points.tobytes()
    assert got.triangles.tobytes() == want.triangles.tobytes()
    assert sorted(got.point_data) == sorted(want.point_data)
    for name, values in want.point_data.items():
        assert got.point_data[name].tobytes() == values.tobytes(), name


def gray_scott(seed, n=20, steps=120, **grid):
    """A seeded Gray-Scott volume with fields ``v`` (contoured) and ``u``."""
    solver = GrayScottSolver(
        (n, n, n), params=GrayScottParams(seed=seed, F=0.03, k=0.055, dt=2.0, noise=0.02)
    )
    for _ in range(steps):
        solver.step_local()
    image = ImageData(dims=(n, n, n), **grid)
    image.set_field("v", solver.v[1:-1, 1:-1, 1:-1].copy())
    image.set_field("u", solver.u[1:-1, 1:-1, 1:-1].copy())
    return image


def gray_scott_surface(seed):
    surface = contour_loop(gray_scott(seed), [0.12, 0.25], "v", interpolate_fields=["u"])
    assert surface.num_triangles > 500
    surface.point_data["s"] = surface.point_data["u"]
    return surface


def random_mesh(seed, n_tri, spread=1.0):
    """Independent random triangles of mixed size, some far off-screen
    (``spread`` > 1), colored by a random scalar ``s``."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, (n_tri, 1, 3))
    size = rng.choice([0.02, 0.1, 0.6], (n_tri, 1, 1))
    points = (centers + rng.uniform(-1, 1, (n_tri, 3, 3)) * size).reshape(-1, 3)
    return PolyData(points, np.arange(3 * n_tri).reshape(-1, 3), {"s": rng.random(3 * n_tri)})


# ---------------------------------------------------------------------------
# rasterize
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("direction", ["z", "x"])
@pytest.mark.parametrize("mode", sorted(RENDER_MODES))
def test_rasterize_gray_scott_matches_loop(seed, direction, mode):
    surface = gray_scott_surface(seed)
    # Zoomed on the middle so triangles span many pixels and some leave the frame.
    camera = Camera.fit((5.0, 14.0) * 3, direction=direction)
    kwargs = RENDER_MODES[mode]
    want = rasterize_loop(surface, camera, 96, 80, **kwargs)
    assert want.coverage() > 0.2
    assert_same_image(rasterize(surface, camera, 96, 80, **kwargs), want)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_tri=st.integers(1, 300),
    spread=st.sampled_from([0.8, 3.0]),
    direction=st.sampled_from(["z", "x"]),
    mode=st.sampled_from(sorted(RENDER_MODES)),
    size=st.sampled_from([(64, 64), (50, 37), (1, 1)]),
)
def test_rasterize_random_meshes_match_loop(seed, n_tri, spread, direction, mode, size):
    mesh = random_mesh(seed, n_tri, spread)
    camera = Camera.fit((-1.0, 1.0) * 3, direction=direction)
    kwargs = RENDER_MODES[mode]
    assert_same_image(
        rasterize(mesh, camera, *size, **kwargs), rasterize_loop(mesh, camera, *size, **kwargs)
    )


@pytest.mark.parametrize("budget", [1, 64, 1000])
def test_rasterize_batch_boundaries_mid_surface(monkeypatch, budget):
    """A tiny fragment budget cuts the surface into many batches; the
    z-buffer carried across them must still replay the loop."""
    monkeypatch.setattr(rasterizer_module, "_FRAGMENT_BUDGET", budget)
    camera = Camera.fit((5.0, 14.0) * 3)
    for mesh in (gray_scott_surface(1), random_mesh(3, 200)):
        for kwargs in RENDER_MODES.values():
            assert_same_image(
                rasterize(mesh, camera, 48, 48, **kwargs),
                rasterize_loop(mesh, camera, 48, 48, **kwargs),
            )


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_rasterize_offscreen_and_degenerate_triangles():
    camera = Camera(position=(0, 0, -5), view_width=4, view_height=4)
    points = np.array(
        [
            (-1, -1, 0), (1, -1, 0), (0, 1, 0),        # on screen
            (50, 50, 0), (51, 50, 0), (50, 51, 0),     # off screen
            (-1e300, 0, 0), (-1e300, 1, 0), (-9e299, 0, 0),  # overflows any int cast
            (-1, 0, 1), (0, 0, 1), (1, 0, 1),          # collinear on screen: |denom| < 1e-12
            (0.5, 0.5, 1), (0.5, 0.5, 1), (0.5, 0.5, 1),  # a point
            (0, 0, -9), (1, 0, -9), (0, 1, -9),        # behind the camera: z <= 0
        ],
        dtype=np.float64,
    )
    mesh = PolyData(points, np.arange(len(points)).reshape(-1, 3), {"s": np.linspace(0, 1, len(points))})
    for kwargs in RENDER_MODES.values():
        want = rasterize_loop(mesh, camera, 40, 40, **kwargs)
        assert 0.0 < want.coverage() < 0.5
        assert_same_image(rasterize(mesh, camera, 40, 40, **kwargs), want)
    only_culled = PolyData(points[3:15], np.arange(12).reshape(-1, 3))
    assert rasterize(only_culled, camera, 40, 40).coverage() == 0.0
    assert_same_image(rasterize(only_culled, camera, 40, 40), rasterize_loop(only_culled, camera, 40, 40))


def test_rasterize_batch_in_which_no_fragment_is_inside(monkeypatch):
    """Depth, pixel index and the rounds are evaluated on the inside
    fragments only: a batch whose boxes hold pixel centres but whose
    triangles cover none of them has nothing left after the compression
    and must leave the z-buffer it inherited alone."""
    monkeypatch.setattr(rasterizer_module, "_FRAGMENT_BUDGET", 1)  # one triangle per batch
    camera = Camera(position=(0, 0, -4), view_width=4, view_height=4)
    # Diagonal slivers threaded between pixel centres: the pixel pitch is
    # 1/8, so px - py = 8 (x + y) stays within 0.5 .. 0.58 of an integer.
    sliver = lambda x, y: [(x, y, 0), (x + 0.5, y - 0.5, 0), (x + 0.51, y - 0.5, 0)]
    points = np.array(
        [(-1, -1, 1), (1, -1, 1), (0, 1, 1)] + sliver(-0.9375, 1.0) + sliver(-0.4375, 0.75)
        + [(-1, 1, 2), (1, 1, 2), (0, -1, 2)],
        dtype=np.float64,
    )
    mesh = PolyData(points, np.arange(12).reshape(-1, 3), {"s": np.linspace(0, 1, 12)})
    slivers = PolyData(points[3:9], np.arange(6).reshape(-1, 3))
    px, py, _ = camera.view_to_pixels(camera.world_to_view(slivers.points), 33, 33)
    assert np.ptp(np.floor(px[:3])) >= 3 and np.ptp(np.floor(py[:3])) >= 3  # boxes hold pixel centres
    assert rasterize(slivers, camera, 33, 33).coverage() == 0.0
    assert_same_image(rasterize(slivers, camera, 33, 33), rasterize_loop(slivers, camera, 33, 33))
    for kwargs in RENDER_MODES.values():
        want = rasterize_loop(mesh, camera, 33, 33, **kwargs)
        assert want.coverage() > 0.15
        assert_same_image(rasterize(mesh, camera, 33, 33, **kwargs), want)


@pytest.mark.parametrize("budget", [1, 1 << 17])
def test_rasterize_inside_by_barycentrics_but_behind_the_camera(monkeypatch, budget):
    """``z > 0`` is tested after the compression to inside fragments: a
    triangle wholly behind the camera draws nothing (alone in its batch,
    the batch ends there), one that crosses the camera plane draws only
    its part in front."""
    monkeypatch.setattr(rasterizer_module, "_FRAGMENT_BUDGET", budget)
    camera = Camera(position=(0, 0, 0), focal_point=(0, 0, 1), view_width=4, view_height=4)
    points = np.array(
        [
            (-1.5, -1.5, -2), (1.5, -1.5, -2), (0, 1.5, -2),   # behind: z = -2 everywhere
            (-1.5, 1.5, -1), (1.5, 1.5, -1), (0, -1.5, 3),     # crosses the camera plane
            (-1, -1, 5), (1, -1, 5), (0, 1, 5),                # in front, partly hidden by the second
            (-0.5, -0.5, 0), (0.5, -0.5, 0), (0, 0.5, 0),      # exactly in the camera plane: z == 0
        ],
        dtype=np.float64,
    )
    mesh = PolyData(points, np.arange(12).reshape(-1, 3), {"s": np.linspace(0, 1, 12)})
    for kwargs in RENDER_MODES.values():
        want = rasterize_loop(mesh, camera, 40, 40, **kwargs)
        assert 0.05 < want.coverage() < 0.5 and want.depth.min() > 0.0
        assert_same_image(rasterize(mesh, camera, 40, 40, **kwargs), want)
    for hidden in (points[:3], points[9:]):
        behind = PolyData(hidden, [(0, 1, 2)])
        assert rasterize(behind, camera, 40, 40).coverage() == 0.0
        assert_same_image(rasterize(behind, camera, 40, 40), rasterize_loop(behind, camera, 40, 40))


def test_rasterize_culls_sliver_below_denominator_floor():
    """A sliver with 0 < |denom| < 1e-12 has finite barycentrics and
    pixels that test inside; the loop skips it on ``denom`` alone."""
    camera = Camera(position=(0, 0, -4), view_width=4, view_height=4)
    # Pixel coordinates (10, 10), (20, 10), (15, 10 + ~1e-14) at 33x33.
    sliver = PolyData([(-0.75, 0.75, 0), (0.5, 0.75, 0), (-0.125, 0.75 - 1.25e-15, 0)], [(0, 1, 2)])
    px, py, _ = camera.view_to_pixels(camera.world_to_view(sliver.points), 33, 33)
    denom = (py[1] - py[2]) * (px[0] - px[2]) + (px[2] - px[1]) * (py[0] - py[2])
    assert 0.0 < abs(denom) < 1e-12
    got = rasterize(sliver, camera, 33, 33)
    assert got.coverage() == 0.0
    assert_same_image(got, rasterize_loop(sliver, camera, 33, 33))


def test_rasterize_coplanar_duplicates_first_triangle_wins():
    """Exact z ties: ``z < zbuf`` is strict, so the later copies lose.
    Vertices on pixel centers 16 apart at depth 4 make every barycentric
    a multiple of 1/16 and every interpolated depth exactly 4.0 (also in
    float32), so each tie really is one."""
    camera = Camera(position=(0, 0, -4), view_width=4, view_height=4)
    corners = np.array([(-2, 2, 0), (0, 2, 0), (-2, 0, 0)], dtype=np.float64)
    mesh = PolyData(
        np.vstack([corners, corners, corners]),
        np.arange(9).reshape(-1, 3),
        {"s": np.repeat([0.0, 0.5, 1.0], 3)},
    )
    first_only = PolyData(corners, [(0, 1, 2)], {"s": np.zeros(3)})
    kwargs = {"color_field": "s", "value_range": (0.0, 1.0)}
    got = rasterize(mesh, camera, 33, 33, **kwargs)
    assert_same_image(got, rasterize_loop(mesh, camera, 33, 33, **kwargs))
    assert_same_image(got, rasterize(first_only, camera, 33, 33, **kwargs))
    assert got.coverage() > 0.1


def test_rasterize_float32_depth_rounding_decides_later_tests():
    """The z-buffer holds float32. Twelve parallel copies of a triangle
    within 3e-8 of depth 3 all store 3.0, so every copy in front of 3.0
    passes ``z < zbuf`` in its turn: the *last* such copy is what shows,
    not the nearest. A min-z reduction would get this pixel-exact case
    wrong; replaying the loop's per-pixel sequence does not."""
    camera = Camera(position=(0, 0, -3), view_width=4, view_height=4)
    corners = np.array([(-1, -1, 0), (1, -1, 0), (0, 1, 0)], dtype=np.float64)
    offsets = np.random.default_rng(11).uniform(-3e-8, 3e-8, 12)
    layers = [corners + (0, 0, dz) for dz in offsets]
    mesh = PolyData(
        np.vstack(layers), np.arange(36).reshape(-1, 3), {"s": np.repeat(np.arange(12.0), 3)}
    )
    kwargs = {"color_field": "s", "value_range": (0.0, 11.0)}
    got = rasterize(mesh, camera, 32, 32, **kwargs)
    assert_same_image(got, rasterize_loop(mesh, camera, 32, 32, **kwargs))
    last_in_front = int(np.flatnonzero(offsets < 0)[-1])
    assert last_in_front != int(np.argmin(offsets))
    shown = PolyData(layers[last_in_front], [(0, 1, 2)], {"s": np.full(3, float(last_in_front))})
    assert got.rgba.tobytes() == rasterize(shown, camera, 32, 32, **kwargs).rgba.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rasterize_rejects_non_finite_points(bad):
    mesh = random_mesh(0, 4)
    mesh.points[1, 2] = bad
    mesh.points[7, 0] = bad
    with pytest.raises(ValueError, match=r"2 of 12 points are not finite"):
        rasterize(mesh, Camera(), 16, 16)
    # Nothing to draw, nothing to reject.
    assert rasterize(PolyData(mesh.points, np.zeros((0, 3))), Camera(), 16, 16).coverage() == 0.0


def test_camera_forward_is_read_only():
    camera = Camera(position=(0, 0, -5), focal_point=(0, 3, -1))
    np.testing.assert_allclose(camera.forward, (0.0, 0.6, 0.8))
    with pytest.raises(AttributeError):
        camera.forward = np.zeros(3)


def test_camera_basis_is_public_and_read_only():
    camera = Camera(position=(0, 0, -5), focal_point=(0, 3, -1))
    np.testing.assert_allclose(camera.right, (-1.0, 0.0, 0.0))
    np.testing.assert_allclose(camera.up, (0.0, 0.8, -0.6))
    np.testing.assert_array_equal(camera.origin, (0.0, 0.0, -5.0))
    # world = origin + x*right + y*up + z*forward inverts world_to_view.
    point = np.array([0.3, -1.2, 2.0])
    x, y, z = camera.world_to_view(point)[0]
    np.testing.assert_allclose(
        camera.origin + x * camera.right + y * camera.up + z * camera.forward, point
    )
    for name in ("right", "up", "origin"):
        with pytest.raises(AttributeError):
            setattr(camera, name, np.zeros(3))


# ---------------------------------------------------------------------------
# contour
@pytest.mark.parametrize("seed", [1, 7])
def test_contour_gray_scott_matches_loop(seed):
    image = gray_scott(seed, origin=(-3.0, 0.5, 10.0), spacing=(0.5, 2.0, 1.25))
    for values, extra in (([0.12, 0.25], None), ([0.2], ["u"]), ([0.05, 0.3, 0.31], ["u", "v"])):
        want = contour_loop(image, values, "v", interpolate_fields=extra)
        assert want.num_triangles > 100
        assert_same_poly(contour(image, values, "v", interpolate_fields=extra), want)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 7), st.integers(2, 7), st.integers(2, 7)),
    levels=st.integers(2, 6),
    n_iso=st.integers(0, 3),
)
def test_contour_random_lattice_fields_match_loop(seed, dims, levels, n_iso):
    """Few distinct grid values, iso-values drawn from the same set: the
    iso-value lands exactly on grid points all the time (``fu == iso``,
    flat edges, whole cells at iso), which is where case bits and edge
    weights are easiest to get subtly wrong."""
    rng = np.random.default_rng(seed)
    image = ImageData(dims=dims, origin=(1.0, -2.0, 0.25), spacing=(0.5, 1.0, 3.0))
    image.set_field("f", rng.integers(0, levels, dims).astype(np.float64))
    image.set_field("g", rng.random(dims))
    values = list(rng.integers(0, levels, n_iso).astype(np.float64) + rng.choice([0.0, 0.5], n_iso))
    assert_same_poly(
        contour(image, values, "f", interpolate_fields=["g"]),
        contour_loop(image, values, "f", interpolate_fields=["g"]),
    )


def test_contour_iso_on_lattice_plane():
    n = 6
    image = ImageData(dims=(n, n, n))
    image.set_field("x", np.broadcast_to(np.arange(n, dtype=np.float64)[:, None, None], (n, n, n)).copy())
    want = contour_loop(image, [2.0, 5.0, 0.0], "x")
    assert want.num_triangles > 0
    assert_same_poly(contour(image, [2.0, 5.0, 0.0], "x"), want)


# ---------------------------------------------------------------------------
# volume_render
def dwi_server_mesh(seed, snapshot, server):
    """What server ``server`` of four holds in ``bench_e2e``'s
    ``dwi_volume_real``: its share of the 16 seeded partitions, merged."""
    dataset = DWIDataset(partitions=16, seed=seed)
    blocks = [dataset.real_file(snapshot, p, scale=3e4) for p in range(server, 16, 4)]
    return merge_blocks(MultiBlockDataSet(blocks))


def views(bounds):
    """Axis-aligned and rotated cameras framing ``bounds``."""
    lo, hi = np.array(bounds[0::2], dtype=float), np.array(bounds[1::2], dtype=float)
    center, extent = (lo + hi) / 2, float((hi - lo).max())
    return {
        "z": Camera.fit(bounds),
        "x": Camera.fit(bounds, direction="x"),
        # right = +x and up = -y: lattice axes project onto *increasing* pixel indices.
        "upside down": Camera(
            position=(center[0], center[1], lo[2] - extent),
            focal_point=tuple(center),
            view_up=(0.0, -1.0, 0.0),
            view_width=1.2 * extent,
            view_height=1.2 * extent,
        ),
        "rotated": Camera(
            position=tuple(center + extent * np.array([1.3, -0.9, -2.1])),
            focal_point=tuple(center),
            view_up=(0.2, 1.0, 0.1),
            view_width=1.4 * extent,
            view_height=1.1 * extent,
        ),
    }


def random_brick(seed, dims=(6, 5, 7), **grid):
    image = ImageData(dims=dims, **grid)
    image.set_field("f", np.random.default_rng(seed).random(dims))
    return image


def render_both(image, field="f", **kwargs):
    want = volume_render_loop(image, field, **kwargs)
    assert_same_image(volume_render(image, field, **kwargs), want)
    return want


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("view", ["z", "x", "rotated"])
def test_volume_render_dwi_matches_loop(seed, view):
    """The benchmark's scene: one camera on the global bounds, each
    server's resampled brick covering its own part of the frame."""
    meshes = [dwi_server_mesh(seed, 16, server) for server in range(4)]
    camera = views(merge_blocks(MultiBlockDataSet(meshes)).bounds)[view]
    covered = []
    for mesh in meshes:
        brick = resample_loop(mesh, (16, 16, 16), fields=["velocity"])
        want = render_both(brick, "velocity", camera=camera, width=64, height=48)
        covered.append(want.coverage())
    assert 0.0 < min(covered) and max(covered) < 0.6


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    content=st.sampled_from(["random", "constant", "lattice", "holes"]),
    view=st.sampled_from(["default", "x", "askew"]),
    size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    steps=st.sampled_from([1, 2, 3, 17, 64]),
    max_opacity=st.sampled_from([0.9, 5.0]),
    value_range=st.sampled_from([None, (0.0, 1.0), (0.25, 2.0), (1.0, 1.0)]),
    budget=st.sampled_from([1, 100, 1 << 15]),
)
def test_volume_render_random_bricks_match_loop(
    seed, content, view, size, steps, max_opacity, value_range, budget
):
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, 9, 3))
    image = ImageData(dims=dims, origin=tuple(rng.uniform(-2, 2, 3)), spacing=tuple(rng.uniform(0.1, 1.0, 3)))
    values = {
        "random": rng.random(dims),
        "constant": np.full(dims, 0.7),
        "lattice": rng.integers(0, 3, dims).astype(np.float64),
        "holes": np.where(rng.random(dims) < 0.1, np.nan, rng.random(dims)),
    }[content]
    image.set_field("f", values)
    if content == "holes" and value_range is None:
        value_range = (0.0, 1.0)  # the loop's default range is NaN here
    bounds = image.bounds
    camera = None
    if view == "x":
        camera = Camera.fit(bounds, direction="x")
    elif view == "askew":
        # Any direction, aimed at, beside or past the brick, zoomed in or out.
        center = np.array([(bounds[0] + bounds[1]) / 2, (bounds[2] + bounds[3]) / 2, (bounds[4] + bounds[5]) / 2])
        extent = np.array([bounds[1] - bounds[0], bounds[3] - bounds[2], bounds[5] - bounds[4]])
        toward = rng.normal(size=3)
        toward /= np.linalg.norm(toward)
        focal = center + rng.uniform(-1, 1, 3) * extent * rng.choice([0.0, 0.5, 2.0])
        camera = Camera(
            position=tuple(focal - toward * (2 * extent.max() + 1)),
            focal_point=tuple(focal),
            view_up=tuple(rng.normal(size=3)),
            view_width=float(extent.max() * rng.choice([0.3, 1.0, 3.0])),
            view_height=float(extent.max() * rng.choice([0.3, 1.0, 3.0])),
        )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(volume_module, "_SAMPLE_BUDGET", budget)
        render_both(
            image, camera=camera, width=size[0], height=size[1], steps=steps,
            max_opacity=max_opacity, value_range=value_range,
        )


@pytest.mark.parametrize("budget", [1, 100, 10**6])
def test_volume_render_chunk_boundaries_mid_footprint(monkeypatch, budget):
    """One ray per chunk, chunks that end mid-row, one chunk for all."""
    monkeypatch.setattr(volume_module, "_SAMPLE_BUDGET", budget)
    image = random_brick(3)
    for camera in views(image.bounds).values():
        for steps in (1, 7, 64):
            want = render_both(image, camera=camera, width=31, height=23, steps=steps, max_opacity=3.0)
            # A single step samples the nearest corner's depth only.
            assert want.coverage() > 0.2 or steps == 1


def test_volume_render_brick_over_corner_all_and_none_of_the_frame():
    image = random_brick(5, dims=(6, 6, 6))  # bounds (0, 5) on every axis

    def looking_at(x, y, window):
        return Camera(position=(x, y, -9.0), focal_point=(x, y, 0.0), view_width=window, view_height=window)

    corner = render_both(image, camera=looking_at(6.0, -1.0, 6.0), width=32, height=32)
    assert 0.05 < corner.coverage() < 0.3
    inside = render_both(image, camera=looking_at(2.5, 2.5, 3.0), width=32, height=32)
    assert inside.coverage() == 1.0
    nothing = render_both(image, camera=looking_at(40.0, 2.5, 6.0), width=32, height=32)
    assert nothing.coverage() == 0.0 and nothing.brick_depth == 9.0
    assert not nothing.rgba.any()


@pytest.mark.parametrize(
    "origin, spacing, pixels, first",
    [(0.373, 1 / 3, 4, 1), (-2.253, 0.1, 4, 1), (-2.127, 1 / 3, 4, 2), (0.0, 1.0, 2, 3)],
)
def test_volume_render_brick_edge_on_a_pixel_centre(origin, spacing, pixels, first):
    """The brick's side spans exactly ``pixels`` pixel pitches and its
    edge sits on the centre of pixel column ``first``: in float, the
    projected corner and the pixel's own ray can land either side of
    each other, so an unpadded footprint drops a column that the march
    itself finds inside the brick."""
    image = ImageData(dims=(5, 5, 5), origin=(origin,) * 3, spacing=(spacing,) * 3)
    image.set_field("f", np.ones(image.dims))
    b = image.bounds
    pitch = (b[1] - b[0]) / pixels
    window = pitch * 8  # nine pixels
    x = b[1] - window / 2 + first * pitch
    y = (b[2] + b[3]) / 2
    camera = Camera(position=(x, y, b[4] - 5.0), focal_point=(x, y, b[4]), view_width=window, view_height=window)
    want = render_both(image, camera=camera, width=9, height=9, steps=4, value_range=(0.0, 1.0))
    assert np.isfinite(want.depth).any(axis=0).sum() >= pixels


@pytest.mark.parametrize(
    "origin, spacing, pixels, first", [(0.373, 1 / 3, 4, 1), (0.373, 1 / 3, 4, 2), (0.373, 0.1, 2, 1)]
)
def test_volume_render_brick_low_edge_on_a_pixel_centre(origin, spacing, pixels, first):
    """The same on the side of lattice index 0, where no cell reaches
    beyond the brick: only the pixel of padding round a flagged cell's
    projection keeps the column whose ray grazes the face."""
    image = ImageData(dims=(5, 5, 5), origin=(origin,) * 3, spacing=(spacing,) * 3)
    image.set_field("f", np.ones(image.dims))
    b = image.bounds
    pitch = (b[1] - b[0]) / pixels
    window = pitch * 8  # nine pixels
    x = b[0] - window / 2 + first * pitch
    y = (b[2] + b[3]) / 2
    camera = Camera(position=(x, y, b[4] - 5.0), focal_point=(x, y, b[4]), view_width=window, view_height=window)
    want = render_both(image, camera=camera, width=9, height=9, steps=4, value_range=(0.0, 1.0))
    # right = -x: the brick covers the columns up to ``first``, the grazed one.
    assert np.isfinite(want.depth).any(axis=0).sum() >= first


@pytest.mark.parametrize("size", [(1, 1), (1, 9), (9, 1), (2, 2)])
def test_volume_render_degenerate_frames(size):
    """A one-pixel axis puts its single ray on the window's edge."""
    image = random_brick(9)
    for camera in (None, Camera(position=(0.5, 4.0, -6.0), focal_point=(2.5, 2.0, 3.0), view_width=9.0, view_height=9.0)):
        want = render_both(image, camera=camera, width=size[0], height=size[1])
        assert want.rgba.shape == (size[1], size[0], 4)


def test_volume_render_transfer_function_edge_cases():
    image = random_brick(13)
    one_step = render_both(image, width=24, height=24, steps=1)
    assert one_step.coverage() > 0.5
    saturated = render_both(image, width=24, height=24, max_opacity=5.0, opacity_power=0.5)
    assert saturated.rgba[..., 3].max() > 0.998  # rays stopped by T <= 1e-3
    ranged = render_both(image, width=24, height=24, value_range=(0.4, 0.6))
    assert ranged.coverage() > 0.5
    for flat in ((1.0, 1.0), (2.0, 1.0)):  # vmax <= vmin: zero opacity everywhere
        blank = render_both(image, width=24, height=24, value_range=flat)
        assert blank.coverage() == 0.0 and blank.brick_depth > 0.0


def test_volume_render_non_finite_voxels_are_holes():
    image = random_brick(17, dims=(8, 8, 8))
    field = image.field("f")
    field[2:4, 3, :] = np.nan
    field[6, 6, 2] = np.inf
    field[1, 5, 5] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for camera in views(image.bounds).values():
            want = render_both(image, camera=camera, width=40, height=40, value_range=(0.0, 1.0))
            assert 0.3 < want.coverage()
    assert np.isfinite(want.rgba).all()


def exact_rays(alphas):
    """A 3x3x17 unit lattice whose value depends on the layer only,
    framed so that the 3x3 pixels' rays run through voxel centres and
    the 17 steps land on the 17 layers. With range (0, 1), opacity 1 and
    power 1 every expression of the transfer function is exact: the
    alpha of step s is ``alphas[s]`` to the bit."""
    field = np.zeros((3, 3, 17))
    field[:, :, : len(alphas)] = alphas
    image = ImageData(dims=(3, 3, 17))
    image.set_field("a", field)
    camera = Camera(position=(1.0, 1.0, -4.0), focal_point=(1.0, 1.0, 0.0), view_width=2.0, view_height=2.0)
    kwargs = dict(camera=camera, width=3, height=3, steps=17, value_range=(0.0, 1.0),
                  max_opacity=1.0, opacity_power=1.0, cmap="grayscale")
    return image, kwargs


def test_volume_render_terminates_at_transmittance_equal_to_threshold():
    """``T > 1e-3`` is strict. Two steps leave exactly 1e-3 (0.512 x 2^-9),
    so the third, however opaque, contributes nothing."""
    a1, a2 = 0.488, 0.998046875
    assert (1.0 - a1) * (1.0 - a2) == 1e-3
    image, kwargs = exact_rays([a1, a2, 0.75])
    want = render_both(image, "a", **kwargs)
    assert (want.rgba[..., 3] == np.float32(a1 + (1.0 - a1) * a2)).all()
    thinner, _ = exact_rays([a1, np.nextafter(a2, 0.0), 0.75])  # leaves a hair more than 1e-3
    one_more = render_both(thinner, "a", **kwargs)
    assert (one_more.rgba[..., 3] > want.rgba[..., 3]).all()


def test_volume_render_skips_alpha_equal_to_floor():
    """``alpha > 1e-4`` is strict too: a step at exactly 1e-4 neither
    contributes nor counts as the first hit."""
    image, kwargs = exact_rays([1e-4, 0.5])
    want = render_both(image, "a", **kwargs)
    assert (want.rgba[..., 3] == 0.5).all() and (want.depth == 5.0).all()


def test_volume_render_sums_contributions_in_ascending_step_order():
    """Three contributions whose float64 sum lands within an ulp of a
    float32 rounding boundary: front-to-back and back-to-front addition
    give different float32 pixels, and only the first is the loop's."""
    alphas = [0.332, 0.573, 0.30000014378603973]
    x1 = alphas[0]
    x2 = (1.0 - alphas[0]) * alphas[1]
    x3 = ((1.0 - alphas[0]) * (1.0 - alphas[1])) * alphas[2]
    ascending, descending = np.float32((x1 + x2) + x3), np.float32((x3 + x2) + x1)
    assert ascending != descending
    image, kwargs = exact_rays(alphas)
    want = render_both(image, "a", **kwargs)
    assert (want.rgba[..., 3] == ascending).all()
    assert (want.depth == 4.0).all()


def test_volume_render_default_range_ignores_non_finite_voxels():
    """One NaN voxel used to turn the default ``value_range`` into
    (NaN, NaN), every alpha into NaN and the frame blank."""
    image = random_brick(21, dims=(6, 6, 6))
    clean = volume_render(image, "f", width=32, height=32)
    image.field("f")[3, 3, 3] = np.nan
    image.field("f")[0, 0, 0] = np.inf
    finite = image.field("f")[np.isfinite(image.field("f"))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        holed = volume_render(image, "f", width=32, height=32)
        explicit = volume_render(image, "f", width=32, height=32, value_range=(finite.min(), finite.max()))
        image.field("f")[:] = np.nan
        empty = volume_render(image, "f", width=32, height=32)
    assert holed.rgba[..., 3].max() > 0.9 * clean.rgba[..., 3].max() > 0.5
    assert_same_image(holed, explicit)
    assert empty.coverage() == 0.0 and empty.brick_depth == holed.brick_depth


# ---------------------------------------------------------------------------
# sample_linear: SciPy's order-1 sampler, without SciPy
@pytest.mark.parametrize("seed", range(6))
def test_sample_linear_is_scipys_order_one_map_coordinates(seed):
    """Byte for byte ``map_coordinates(order=1, mode="constant",
    cval=nan)`` on NaN and +-inf voxels, NaN coordinates, coordinates
    exactly on ``0`` and ``n - 1`` and ``1e-12`` outside them, whole
    coordinates, one-plane axes and Fortran order — NaN where SciPy has
    NaN, whatever its payload (x86 takes it from whichever operand comes
    first, and no render reads it). A sample on the last plane still
    reads the plane before it (mirrored, weight 0): an inf there makes
    it NaN."""
    from scipy.ndimage import map_coordinates

    rng = np.random.default_rng(seed)
    for _ in range(50):
        shape = tuple(int(n) for n in rng.integers(1, 6, 3))
        volume = rng.standard_normal(shape)
        kind = rng.integers(0, 10, shape)
        volume[kind == 0], volume[kind == 1], volume[kind == 2] = np.nan, np.inf, -np.inf
        if rng.random() < 0.5:
            volume = np.asfortranarray(volume)
        top = np.array(shape, dtype=np.float64)[:, None] - 1
        coordinates = rng.uniform(-0.2, 1.2, (3, 400)) * top + rng.uniform(-0.2, 0.2, (3, 400))
        kind = rng.integers(0, 10, coordinates.shape)
        edge = np.broadcast_to(top, coordinates.shape)
        coordinates = np.select(
            [kind == 0, kind == 1, kind == 2, kind == 3, kind == 4, kind == 5],
            [0.0, edge, -1e-12, edge + 1e-12, np.nan, np.round(coordinates)],
            coordinates,
        )
        want = map_coordinates(volume, coordinates, order=1, mode="constant", cval=np.nan)
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error")
            got = volume_module.sample_linear(volume, coordinates)
        got, want = (np.where(np.isnan(x), np.nan, x) for x in (got, want))  # every NaN alike
        assert got.tobytes() == want.tobytes(), (shape, coordinates[:, got.view(np.int64) != want.view(np.int64)])


# ---------------------------------------------------------------------------
# volume_render: the occupancy tests are supersets
def sampled_coordinates(patch, module, name):
    """Record every coordinate column the sampler ``module.<name>`` is
    handed from now on, as 24-byte keys, next to the value it returned."""
    seen = {}
    real = getattr(module, name)

    def recording(volume, coordinates, **kwargs):
        values = real(volume, coordinates, **kwargs)
        columns = np.ascontiguousarray(np.asarray(coordinates, dtype=np.float64).T)
        seen.update(zip((c.tobytes() for c in columns), values))
        return values

    patch.setattr(module, name, recording)
    return seen


def render_both_checking_the_skip(image, field="f", **kwargs):
    """``render_both``, plus: no sample that the dense loop finds opaque
    was rejected (its ray unmarched or its cell unflagged) by the
    kernel. Opacity is the loop's own expression on the loop's own
    samples. Returns the image and (opaque, sampled) counts."""
    with pytest.MonkeyPatch.context() as patch:
        dense = sampled_coordinates(patch, loops_module, "map_coordinates")
        kept = sampled_coordinates(patch, volume_module, "sample_linear")
        want = render_both(image, field, **kwargs)
    camera = kwargs.get("camera") or Camera.fit(image.bounds)
    b = image.bounds
    corners = [(b[i], b[2 + j], b[4 + k]) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    view_z = camera.world_to_view(np.array(corners))[:, 2]
    z_near, z_far = float(view_z.min()), float(view_z.max())
    steps = kwargs.get("steps", 64)
    alpha_scale = (z_far - z_near) / max(steps - 1, 1) / max((z_far - z_near) / 16.0, 1e-9)
    vmin, vmax = kwargs.get("value_range") or (image.field(field).min(), image.field(field).max())
    keys = list(dense)
    sample = np.array([dense[k] for k in keys])
    ramp = loops_module.opacity_ramp(
        sample, vmin, vmax, kwargs.get("max_opacity", 0.9), kwargs.get("opacity_power", 1.5)
    )
    opaque = np.isfinite(sample) & (np.clip(ramp * alpha_scale, 0.0, 1.0) > 1e-4)
    dropped = [k for k, hit in zip(keys, opaque) if hit and k not in kept]
    assert not dropped, f"{len(dropped)} of {opaque.sum()} opaque samples were skipped"
    return want, int(opaque.sum()), len(kept)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    content=st.sampled_from(["random", "lattice", "nan holes", "inf holes", "blob"]),
    view=st.sampled_from(["default", "x", "askew"]),
    size=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    steps=st.sampled_from([2, 3, 17, 40]),
    opacity_power=st.sampled_from([0.0, 0.5, 1.5, -1.0]),
    value_range=st.sampled_from([None, (0.0, 1.0), (0.4, 0.6), (0.7, 3.0), (1.0, 1.0), (2.0, 1.0)]),
    budget=st.sampled_from([1, 100, 1 << 15]),
)
def test_volume_render_skip_never_drops_an_opaque_sample(
    seed, content, view, size, steps, opacity_power, value_range, budget
):
    """Random, lattice-valued, holed and mostly-empty bricks under any
    camera, increasing, flat and decreasing ramps, ranges narrower than
    the data and empty ones."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, 8, 3))
    image = ImageData(dims=dims, origin=tuple(rng.uniform(-2, 2, 3)), spacing=tuple(rng.uniform(0.1, 1.0, 3)))
    holes = rng.random(dims) < 0.12
    values = {
        "random": rng.random(dims),
        "lattice": rng.integers(0, 3, dims) / 2.0,
        "nan holes": np.where(holes, np.nan, rng.random(dims)),
        "inf holes": np.where(holes, rng.choice([np.inf, -np.inf], dims), rng.random(dims)),
        "blob": np.where(rng.random(dims) < 0.1, rng.random(dims), 0.0),  # most cells cold
    }[content]
    image.set_field("f", values)
    if "holes" in content and value_range is None:
        value_range = (0.0, 1.0)  # the loop's default range is not finite here
    bounds = image.bounds
    camera = None
    if view == "x":
        camera = Camera.fit(bounds, direction="x")
    elif view == "askew":
        lo, hi = np.array(bounds[0::2]), np.array(bounds[1::2])
        toward = rng.normal(size=3)
        focal = (lo + hi) / 2 + rng.uniform(-1, 1, 3) * (hi - lo) * rng.choice([0.0, 0.5])
        camera = Camera(
            position=tuple(focal - toward / np.linalg.norm(toward) * (2 * (hi - lo).max() + 1)),
            focal_point=tuple(focal),
            view_up=tuple(rng.normal(size=3)),
            view_width=float((hi - lo).max() * rng.choice([0.3, 1.0, 3.0])),
            view_height=float((hi - lo).max() * rng.choice([0.3, 1.0, 3.0])),
        )
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        # A decreasing ramp divides by t == 0, in the loop and in the kernel.
        warnings.filterwarnings("ignore", "divide by zero", RuntimeWarning)
        patch.setattr(volume_module, "_SAMPLE_BUDGET", budget)
        render_both_checking_the_skip(
            image, camera=camera, width=size[0], height=size[1], steps=steps,
            max_opacity=5.0, opacity_power=opacity_power, value_range=value_range,
        )


def test_volume_render_alpha_one_ulp_above_the_floor_contributes():
    """The companion of the ``alpha == 1e-4`` test above: the next float
    up is opaque, in a cell whose every other corner is cold."""
    above = float(np.nextafter(1e-4, 1.0))
    image, kwargs = exact_rays([0.0, 0.0, above])
    want, opaque, _ = render_both_checking_the_skip(image, "a", **kwargs)
    assert opaque == 9 and (want.rgba[..., 3] == np.float32(above)).all() and (want.depth == 6.0).all()


def test_volume_render_decreasing_ramp_is_tested_at_its_lower_end():
    """``opacity_power < 0`` turns the ramp around: the opaque side of
    the floor is *below* it. ``0.5`` sits exactly on the floor here
    (``5e-5 / 0.5 == 1e-4``), a value a few ulps below is opaque, and
    only the ``v - margin`` end of the hot-point test can tell."""
    below = 0.5 * (1.0 - 2.0**-50)
    assert 5e-5 * 0.5**-1.0 == 1e-4 < 5e-5 * below**-1.0
    image, kwargs = exact_rays([1.0, 1.0, below, 0.5])
    image.field("a")[:, :, 4:] = 1.0
    kwargs.update(max_opacity=5e-5, opacity_power=-1.0)
    want, opaque, _ = render_both_checking_the_skip(image, "a", **kwargs)
    assert opaque == 9 and (want.depth == 6.0).all()


def test_volume_render_sample_rounded_above_all_its_corners_is_kept():
    """An order-1 sample is a convex combination of its cell's corners
    only up to rounding. Every voxel here sits exactly *on* the opacity
    floor (not opaque), yet off the voxel centres the interpolation
    rounds some samples an ulp or two up — opaque, in cells without one
    opaque corner. The hot-point test's rounding margin is what keeps
    those cells."""
    image, kwargs = exact_rays([1e-4] * 17)
    assert (image.field("a") == 1e-4).all()
    kwargs["camera"] = Camera(position=(1.25, 1.1, -4.0), focal_point=(1.25, 1.1, 0.0), view_width=2.0, view_height=2.0)
    want, opaque, _ = render_both_checking_the_skip(image, "a", **kwargs)
    assert opaque > 0 and want.coverage() > 0.0


def test_volume_render_hot_voxel_next_to_a_hole():
    """A NaN corner makes its cell's samples NaN, but the hot voxel's
    other seven cells still render; the hole must not eat the flag."""
    image = ImageData(dims=(5, 5, 5))
    field = np.zeros(image.dims)
    field[2, 2, 2] = 1.0
    field[3, 2, 2] = np.nan
    field[2, 1, 2] = -np.inf
    image.set_field("f", field)
    for camera in views(image.bounds).values():
        want, opaque, _ = render_both_checking_the_skip(
            image, camera=camera, width=40, height=40, value_range=(0.0, 1.0)
        )
        assert opaque > 0 and 0.0 < want.coverage() < 0.3


@pytest.mark.parametrize("where", [
    (0, 2, 2), (4, 2, 2), (2, 0, 2), (2, 4, 2), (2, 2, 0), (2, 2, 5),  # faces
    (0, 0, 2), (4, 2, 5), (2, 4, 0),  # edges
    (0, 0, 0), (4, 4, 5), (0, 4, 5), (4, 0, 0),  # corners
])
def test_volume_render_single_hot_voxel_on_the_brick_boundary(where):
    """The flag of a boundary voxel lives in fewer cells (one, at a
    corner), including the top-layer cells that only a sample exactly on
    the last lattice plane floors into."""
    image = ImageData(dims=(5, 5, 6), origin=(-1.0, 0.5, 2.0), spacing=(0.5, 0.25, 1.0))
    field = np.zeros(image.dims)
    field[where] = 1.0
    image.set_field("f", field)
    for name, camera in views(image.bounds).items():
        want, opaque, sampled = render_both_checking_the_skip(image, camera=camera, width=48, height=48)
        assert opaque > 0 and want.coverage() > 0.0, name
        assert sampled <= 0.1 * 48 * 48 * 64, (name, opaque, sampled)  # and little else is sampled


def test_volume_render_samples_exactly_on_the_last_lattice_planes():
    """Looking along x at a brick whose hot layer is its far side in x, y
    and z at once: with the frame's edge rays and the last step exactly
    on the boundary planes, those samples floor to index ``n - 1``."""
    image = ImageData(dims=(4, 4, 4))
    field = np.zeros(image.dims)
    field[3], field[:, 3], field[:, :, 3] = 1.0, 0.75, 0.5
    image.set_field("f", field)
    camera = Camera(position=(-3.0, 1.5, 1.5), focal_point=(0.0, 1.5, 1.5), view_up=(0, 0, 1), view_width=3.0, view_height=3.0)
    with pytest.MonkeyPatch.context() as patch:
        kept = sampled_coordinates(patch, volume_module, "sample_linear")
        want = render_both(image, camera=camera, width=4, height=4, steps=4)
    on_last_plane = [k for k in kept if 3.0 in np.frombuffer(k)]
    assert on_last_plane and np.isfinite([kept[k] for k in on_last_plane]).any()
    assert want.coverage() == 1.0


def test_volume_render_all_cold_volume_is_never_sampled(monkeypatch):
    def never(*_args, **_kwargs):
        raise AssertionError("a cold volume reached the sampler")

    image = random_brick(2)
    monkeypatch.setattr(volume_module, "sample_linear", never)
    for kwargs in ({"value_range": (2.0, 3.0)}, {"value_range": (1.0, 1.0)}, {"max_opacity": 0.0}):
        got = volume_render(image, "f", width=16, height=16, **kwargs)
        assert_same_image(got, volume_render_loop(image, "f", width=16, height=16, **kwargs))
        assert got.coverage() == 0.0 and not got.rgba.any() and got.brick_depth > 0.0


def test_volume_render_one_pixel_frame_keeps_its_ray():
    """The single ray of a 1 x 1 frame runs along the window's top-left
    corner; the brick is placed under it."""
    image = random_brick(4, origin=(3.5, 0.2, 0.0))
    camera = Camera(position=(2.0, 0.0, -6.0), focal_point=(2.0, 0.0, 0.0), view_width=8.0, view_height=4.0)
    want, opaque, _ = render_both_checking_the_skip(image, camera=camera, width=1, height=1)
    assert opaque > 0 and want.coverage() == 1.0


# ---------------------------------------------------------------------------
# resample_to_image
def assert_same_grid(got, want):
    assert got.dims == want.dims and got.origin == want.origin and got.spacing == want.spacing
    assert sorted(got.point_data) == sorted(want.point_data)
    for name, values in want.point_data.items():
        assert got.point_data[name].tobytes() == values.tobytes(), name


def point_cloud(points, **fields):
    return UnstructuredGrid(points, np.zeros((0, 4), dtype=np.int64), point_data=fields)


@pytest.mark.parametrize("seed", [1, 7])
def test_resample_dwi_matches_loop(seed):
    for snapshot in (1, 16, 30):
        for server in (0, 3):
            mesh = dwi_server_mesh(seed, snapshot, server)
            want = resample_loop(mesh, (32, 32, 32), fields=["velocity"])
            inside = np.count_nonzero(want.field("velocity")) / 32**3
            assert 0.02 < inside < 0.5
            assert_same_grid(resample_to_image(mesh, (32, 32, 32), fields=["velocity"]), want)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    dims=st.tuples(*[st.sampled_from([2, 3, 5, 7, 9])] * 3),
    half_cell=st.booleans(),
    cutoff_factor=st.sampled_from([0.25, 0.5, 1.0, 2.0, 10.0]),
)
def test_resample_lattice_meshes_with_exact_ties_match_loop(seed, n, dims, half_cell, cutoff_factor):
    """Mesh points on the integer lattice (some twice), voxels on whole
    and half coordinates: most voxels are equidistant from 2, 4 or 8
    points carrying different values, and the stencil must pick the one
    the loop picks, the lowest index."""
    rng = np.random.default_rng(seed)
    lattice = np.argwhere(rng.random((n, n, n)) < 0.6).astype(np.float64)
    if len(lattice) == 0:
        lattice = np.zeros((1, 3))
    lattice = np.vstack([lattice, lattice[rng.integers(0, len(lattice), 3)]])
    mesh = point_cloud(lattice, f=rng.random(len(lattice)), g=rng.integers(0, 5, len(lattice)).astype(np.float64))
    bounds = (-0.5, n - 0.5) * 3 if half_cell else (0.0, n - 1.0) * 3
    assert_same_grid(
        resample_to_image(mesh, dims, bounds=bounds, cutoff_factor=cutoff_factor),
        resample_loop(mesh, dims, bounds=bounds, cutoff_factor=cutoff_factor),
    )


def test_resample_voxel_at_exactly_the_cutoff_is_inside():
    """``sqrt(s) <= cutoff`` is inclusive."""
    mesh = point_cloud([(0.0, 0.0, 0.0), (4.0, 4.0, 4.0)], f=[3.0, 5.0])
    want = resample_loop(mesh, (5, 5, 5))  # unit spacing, cutoff 2.0
    assert want.spacing == (1.0, 1.0, 1.0)
    assert want.field("f")[2, 0, 0] == 3.0 and want.field("f")[4, 4, 2] == 5.0
    assert want.field("f")[2, 1, 0] == 0.0
    assert_same_grid(resample_to_image(mesh, (5, 5, 5)), want)


def test_resample_all_outside_and_all_inside():
    rng = np.random.default_rng(4)
    mesh = point_cloud(rng.uniform(0, 1, (50, 3)), f=rng.random(50) + 1.0)
    far = resample_to_image(mesh, (4, 5, 6), bounds=(10, 11, 10, 11, 10, 11))
    assert not far.field("f").any()
    assert_same_grid(far, resample_loop(mesh, (4, 5, 6), bounds=(10, 11, 10, 11, 10, 11)))
    near = resample_to_image(mesh, (4, 5, 6), cutoff_factor=100.0)
    assert (near.field("f") >= 1.0).all()
    assert_same_grid(near, resample_loop(mesh, (4, 5, 6), cutoff_factor=100.0))


# ---------------------------------------------------------------------------
# resample_to_image: every pair within the cutoff is in its point's box
def tree_fields(mesh, got, cutoff):
    """The fields SciPy's unbounded ``cKDTree`` query gives on ``got``'s
    lattice: the kernel's result wherever no voxel has two equidistant
    nearest points (the tree then picks by its layout)."""
    from scipy.spatial import cKDTree

    dist, nearest = cKDTree(mesh.points).query(got.point_coords(), k=1)
    nearest = np.minimum(nearest, mesh.num_points - 1)  # a distance that overflows is a miss
    return {
        name: np.where(dist <= cutoff, np.asarray(values, dtype=np.float64)[nearest], 0.0).reshape(got.dims)
        for name, values in mesh.point_data.items()
    }


def resample_checking_the_filter(mesh, dims, ties=False, **kwargs):
    """Resample, and check every (point, voxel) pair of the lattice that
    came back: none within the cutoff lies outside the point's box
    (``cutoff_boxes``, the only voxels the stencil pairs it with); and,
    unless the mesh has exact ties, the fields are the unbounded tree
    query's. Returns the image and the number of candidate voxels (those
    in some point's box)."""
    got = resample_to_image(mesh, dims, **kwargs)
    cutoff = kwargs.get("cutoff_factor", 2.0) * float(np.mean(got.spacing))
    points = np.asarray(mesh.points, dtype=np.float64)
    first, last = resample_module.cutoff_boxes(points, got.origin, got.spacing, cutoff, dims)
    voxel = np.indices(dims).reshape(3, -1).T  # ravel order, as point_coords()
    boxed = ((first[:, None] <= voxel) & (voxel < last[:, None])).all(axis=2)  # (points, voxels)
    d = got.point_coords() - points[:, None]
    with np.errstate(over="ignore"):  # a point at 1e300 is at distance inf
        s = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]
    missed = (np.sqrt(s) <= cutoff) & ~boxed
    assert not missed.any(), f"{missed.sum()} pairs within the cutoff lie outside their point's box"
    if not ties:
        for name, want in tree_fields(mesh, got, cutoff).items():
            assert got.field(name).tobytes() == want.tobytes(), name
    return got, int(boxed.any(axis=0).sum())


@pytest.mark.parametrize("server", range(4))
def test_resample_dwi_bricks_match_scipys_unbounded_tree(server):
    """The sixteen bricks ``dwi_volume_real`` resamples at seed 1 (four
    snapshots, four servers) have no exact ties: the stencil returns the
    bytes SciPy's tree did."""
    for snapshot in (1, 11, 20, 30):
        mesh = dwi_server_mesh(1, snapshot, server)
        got = resample_to_image(mesh, (32, 32, 32))
        for name, want in tree_fields(mesh, got, 2.0 * float(np.mean(got.spacing))).items():
            assert got.field(name).tobytes() == want.tobytes(), (snapshot, name)


@pytest.mark.parametrize("origin, spacing", [(0.373, 1.1), (-2.253, 1 / 3), (1000.1, 0.7), (0.0, 1.0)])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_resample_point_exactly_the_cutoff_from_a_voxel_along_an_axis(origin, spacing, at):
    """A mesh point *on* a voxel is two pitches — the cutoff — from the
    voxels two further along each axis, up to the rounding of
    ``origin + spacing * i``: the index box has to take whichever side
    the distance's own arithmetic lands on."""
    n = 6
    bounds = (origin, origin + spacing * (n - 1)) * 3
    xs = origin + spacing * np.arange(n)
    mesh = point_cloud([(xs[at], xs[1], xs[2])], f=[3.0])
    want = resample_loop(mesh, (n, n, n), bounds=bounds)
    assert_same_grid(resample_to_image(mesh, (n, n, n), bounds=bounds), want)
    got, candidates = resample_checking_the_filter(mesh, (n, n, n), bounds=bounds)
    assert got.field("f")[at, 1, 2] == 3.0 and got.field("f")[at + 1, 1, 3] == 3.0
    assert candidates <= 5**3  # the ball's box, not the lattice


def test_resample_point_exactly_the_cutoff_from_a_voxel_along_a_diagonal():
    """3-4-5: the voxel at (3, 4, 0) is exactly 5.0 from the origin."""
    mesh = point_cloud([(0.0, 0.0, 0.0), (9.0, 9.0, 9.0)], f=[3.0, 5.0])
    want = resample_loop(mesh, (10, 10, 10), cutoff_factor=5.0)
    assert want.spacing == (1.0, 1.0, 1.0)
    assert want.field("f")[3, 4, 0] == 3.0 and want.field("f")[9, 5, 6] == 5.0
    assert want.field("f")[3, 4, 1] == 0.0 and want.field("f")[4, 4, 0] == 0.0
    assert_same_grid(resample_to_image(mesh, (10, 10, 10), cutoff_factor=5.0), want)
    resample_checking_the_filter(mesh, (10, 10, 10), cutoff_factor=5.0)


def test_resample_points_outside_explicit_bounds():
    """Mesh points beside, just outside and far outside the lattice: the
    near ones still claim boundary voxels, the far ones' boxes clip to
    nothing (also when their coordinates overflow any index)."""
    rng = np.random.default_rng(8)
    points = np.vstack([
        rng.uniform(0.0, 1.0, (30, 3)),        # inside
        rng.uniform(-0.3, 1.3, (60, 3)),       # around the faces
        rng.uniform(5.0, 9.0, (20, 3)),        # far
        [(1e300, 0.5, 0.5), (-1e300, -1e300, 0.5), (0.5, 0.5, 1.2)],
    ])
    mesh = point_cloud(points, f=rng.random(len(points)) + 1.0)
    bounds = (0.0, 1.0) * 3
    for cutoff_factor in (0.5, 1.0, 2.0):
        kwargs = dict(bounds=bounds, cutoff_factor=cutoff_factor)
        assert_same_grid(resample_to_image(mesh, (9, 8, 7), **kwargs), resample_loop(mesh, (9, 8, 7), **kwargs))
        resample_checking_the_filter(mesh, (9, 8, 7), **kwargs)
    lonely = point_cloud(points[-3:-1], f=[1.0, 2.0])
    got, candidates = resample_checking_the_filter(lonely, (9, 8, 7), bounds=bounds)
    assert candidates == 0 and not got.field("f").any()


@pytest.mark.parametrize("flat_axes", [(2,), (0,), (0, 1), (0, 1, 2)])
def test_resample_planar_linear_and_single_point_meshes(flat_axes):
    """No extent along some axes: the lattice becomes a slab (a rod, a
    cube) centred on the mesh, and the pre-filter's boxes follow. The
    loop divides by the zero spacing here, so the reference is the
    unbounded query alone."""
    rng = np.random.default_rng(12)
    points = rng.uniform(-1.0, 2.0, (1 if len(flat_axes) == 3 else 40, 3))
    points[:, flat_axes] = 0.25
    mesh = point_cloud(points, f=rng.random(len(points)) + 1.0)
    got, candidates = resample_checking_the_filter(mesh, (6, 7, 5))
    assert all(s > 0.0 for s in got.spacing)
    assert 0 < np.count_nonzero(got.field("f")) <= candidates <= 6 * 7 * 5


def test_resample_duplicated_points_resolve_like_the_loop():
    """Coincident mesh points carrying different values are an exact tie
    at every voxel: the lowest index wins, as in the loop."""
    rng = np.random.default_rng(5)
    base = rng.uniform(0.0, 4.0, (25, 3))
    points = np.vstack([base, base[::2], base[::3], base[:1]])
    mesh = point_cloud(points, f=np.arange(len(points), dtype=np.float64) + 1.0)
    want = resample_loop(mesh, (12, 12, 12), cutoff_factor=1.0)
    assert 0 < np.count_nonzero(want.field("f")) < 12**3
    assert_same_grid(resample_to_image(mesh, (12, 12, 12), cutoff_factor=1.0), want)
    resample_checking_the_filter(mesh, (12, 12, 12), ties=True, cutoff_factor=1.0)


@pytest.mark.parametrize("budget", [1, 50, 1000])
def test_resample_chunk_boundaries_keep_the_lowest_index_among_ties(monkeypatch, budget):
    """Chunks of one point, of a few and of many: a chunk that improves on
    a voxel replaces the earlier chunks' winner, one that ties with it
    does not."""
    monkeypatch.setattr(resample_module, "_PAIR_BUDGET", budget)
    rng = np.random.default_rng(9)
    lattice = np.argwhere(rng.random((4, 4, 4)) < 0.5).astype(np.float64)
    points = np.vstack([lattice[::-1], lattice[:5], lattice + 0.25])
    mesh = point_cloud(points, f=np.arange(len(points), dtype=np.float64) + 1.0)
    for dims, kwargs in (((7, 7, 7), {"bounds": (0.0, 3.0) * 3}), ((5, 6, 7), {"cutoff_factor": 1.0})):
        assert_same_grid(resample_to_image(mesh, dims, **kwargs), resample_loop(mesh, dims, **kwargs))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(1, 60),
    dims=st.tuples(*[st.sampled_from([2, 3, 6, 11])] * 3),
    cutoff_factor=st.sampled_from([0.0, 0.3, 1.0, 2.0, 4.0]),
    shifted=st.booleans(),
)
def test_resample_filter_never_hides_a_voxel_within_the_cutoff(seed, n_points, dims, cutoff_factor, shifted):
    """Random clouds on anisotropic lattices, default bounds (points on
    the lattice's faces) and bounds shifted half off the cloud."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, (n_points, 3)) * rng.choice([0.1, 1.0, 30.0], 3) + rng.uniform(-50, 50, 3)
    mesh = point_cloud(points, f=rng.random(n_points) + 1.0)
    kwargs = {"cutoff_factor": cutoff_factor}
    if shifted or n_points == 1:
        lo, hi = points.min(axis=0) - 0.1, points.max(axis=0) + 0.1
        shift = (hi - lo) * rng.uniform(-0.5, 0.5, 3)
        kwargs["bounds"] = tuple(np.column_stack([lo + shift, hi + shift]).ravel())
    assert_same_grid(resample_to_image(mesh, dims, **kwargs), resample_loop(mesh, dims, **kwargs))
    resample_checking_the_filter(mesh, dims, **kwargs)


# ---------------------------------------------------------------------------
# box_union: the one "union of index boxes" both pre-filters share
@pytest.mark.parametrize("seed", range(4))
def test_box_union_matches_brute_force_in_one_two_and_three_dimensions(seed):
    from repro.vtk.occupancy import box_union

    rng = np.random.default_rng(seed)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        shape = tuple(int(n) for n in rng.integers(1, 7, d))
        boxes = int(rng.integers(0, 6))
        lo = rng.uniform(-3, 8, (boxes, d)).round(int(rng.integers(0, 3)))  # often whole numbers
        hi = lo + rng.uniform(-1, 4, (boxes, d)).round(int(rng.integers(0, 3)))
        want = np.zeros(shape, dtype=bool)
        for index in np.ndindex(*shape):
            want[index] = any(((lo[b] <= index) & (index <= hi[b])).all() for b in range(boxes))
        got = box_union(lo, hi, shape)
        assert got.dtype == bool and got.shape == shape and (got == want).all()


def test_box_union_takes_unbounded_and_undefined_bounds():
    from repro.vtk.occupancy import box_union

    lo = np.array([[-np.inf, 1.0], [2.0, np.nan], [1e300, 0.0]])
    hi = np.array([[0.0, 1e300], [np.inf, 0.0], [np.inf, 2.0]])
    # NaN (inf - inf upstream) is "no bound on that side", never an error.
    assert box_union(lo, hi, (4, 3)).astype(int).tolist() == [[0, 1, 1], [0, 0, 0], [1, 0, 0], [1, 0, 0]]
