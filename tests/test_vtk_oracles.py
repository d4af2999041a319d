"""Byte equality of the vectorised VTK kernels with the loops they replaced.

``rasterize`` (fragment batches + depth-peeling rounds) and ``contour``
(flat case table + stable sort) promise the exact bytes of the
per-triangle and per-case loops kept in ``tests/oracles/vtk_loops.py``.
No tolerance anywhere in this file: a last-bit difference is a failure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.vtk.render.rasterizer as rasterizer_module
from repro.apps import GrayScottParams, GrayScottSolver
from repro.vtk import ImageData, PolyData
from repro.vtk.filters import contour
from repro.vtk.render import Camera, rasterize
from tests.oracles.vtk_loops import contour_loop, rasterize_loop

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
