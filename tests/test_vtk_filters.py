"""Tests for the VTK filters: contour, clip, threshold, merge, resample."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vtk import ImageData, MultiBlockDataSet, PolyData, UnstructuredGrid
from repro.vtk.filters import clip_polydata, contour, merge_blocks, resample_to_image, threshold


def sphere_field(n=33, radius=1.0, extent=1.5):
    """Signed distance to a sphere sampled on an n^3 grid."""
    spacing = 2 * extent / (n - 1)
    img = ImageData(dims=(n, n, n), origin=(-extent,) * 3, spacing=(spacing,) * 3)
    coords = img.point_coords()
    dist = np.linalg.norm(coords, axis=1).reshape(n, n, n)
    img.set_field("dist", dist)
    img.set_field("x", coords[:, 0].reshape(n, n, n))
    return img


# ---------------------------------------------------------------------------
# contour
def test_contour_sphere_area_close_to_analytic():
    img = sphere_field(n=49, radius=1.0)
    surface = contour(img, [1.0], "dist")
    analytic = 4 * np.pi
    assert surface.surface_area() == pytest.approx(analytic, rel=0.03)


def test_contour_points_lie_on_isosurface():
    img = sphere_field(n=33)
    surface = contour(img, [1.0], "dist")
    radii = np.linalg.norm(surface.points, axis=1)
    # Linear interpolation error of the distance field on the grid.
    assert np.all(np.abs(radii - 1.0) < 0.01)


def test_contour_scalar_field_constant():
    img = sphere_field(n=17)
    surface = contour(img, [0.8], "dist")
    assert np.allclose(surface.point_data["dist"], 0.8)


def test_contour_interpolates_extra_fields():
    img = sphere_field(n=33)
    surface = contour(img, [1.0], "dist", interpolate_fields=["x"])
    # On a sphere of radius 1, the x field equals the x coordinate.
    assert np.allclose(surface.point_data["x"], surface.points[:, 0], atol=0.02)


def test_contour_multiple_values_concatenates():
    img = sphere_field(n=33)
    two = contour(img, [0.7, 1.2], "dist")
    one_a = contour(img, [0.7], "dist")
    one_b = contour(img, [1.2], "dist")
    assert two.num_triangles == one_a.num_triangles + one_b.num_triangles
    assert two.surface_area() == pytest.approx(one_a.surface_area() + one_b.surface_area())


def test_contour_no_crossing_returns_empty():
    img = sphere_field(n=9)
    assert contour(img, [99.0], "dist").num_points == 0
    assert contour(img, [-1.0], "dist").num_points == 0


def test_contour_degenerate_grid():
    img = ImageData(dims=(1, 5, 5), point_data={"f": np.zeros((1, 5, 5))})
    assert contour(img, [0.5], "f").num_points == 0


def test_contour_respects_origin_and_spacing():
    img = sphere_field(n=33)
    shifted = ImageData(
        dims=img.dims,
        origin=(10 + img.origin[0], img.origin[1], img.origin[2]),
        spacing=img.spacing,
        point_data={"dist": img.field("dist")},
    )
    surface = contour(shifted, [1.0], "dist")
    center = surface.points.mean(axis=0)
    assert center[0] == pytest.approx(10.0, abs=0.05)


@settings(max_examples=15, deadline=None)
@given(
    radius=st.floats(min_value=0.4, max_value=1.3),
    n=st.integers(min_value=17, max_value=41),
)
def test_property_contour_sphere_area(radius, n):
    """Iso-sphere area approximates 4*pi*r^2 for random radii/grids."""
    img = sphere_field(n=n)
    surface = contour(img, [radius], "dist")
    analytic = 4 * np.pi * radius**2
    assert surface.surface_area() == pytest.approx(analytic, rel=0.12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_contour_triangles_straddle_isovalue(seed):
    """Every emitted triangle comes from a tet straddling the isovalue:
    all surface points must lie within the scalar range of the field."""
    rng = np.random.default_rng(seed)
    n = 12
    img = ImageData(dims=(n, n, n))
    img.set_field("f", rng.normal(size=(n, n, n)))
    iso = float(rng.uniform(-1, 1))
    surface = contour(img, [iso], "f")
    if surface.num_points:
        # points inside the grid bounds
        b = img.bounds
        assert surface.points[:, 0].min() >= b[0] - 1e-9
        assert surface.points[:, 0].max() <= b[1] + 1e-9


# ---------------------------------------------------------------------------
# clip
def test_clip_keeps_positive_halfspace():
    img = sphere_field(n=33)
    sphere = contour(img, [1.0], "dist")
    clipped = clip_polydata(sphere, origin=(0, 0, 0), normal=(1, 0, 0))
    assert clipped.num_triangles > 0
    assert clipped.points[:, 0].min() >= -1e-9
    # Half a sphere: half the area (within mesh tolerance).
    assert clipped.surface_area() == pytest.approx(sphere.surface_area() / 2, rel=0.05)


def test_clip_plane_through_nothing_keeps_all():
    img = sphere_field(n=17)
    sphere = contour(img, [1.0], "dist")
    kept = clip_polydata(sphere, origin=(0, 0, -50), normal=(0, 0, 1))
    assert kept.surface_area() == pytest.approx(sphere.surface_area(), rel=1e-9)
    gone = clip_polydata(sphere, origin=(0, 0, 50), normal=(0, 0, 1))
    assert gone.num_triangles == 0


def test_clip_interpolates_fields():
    poly = PolyData(
        [[-1, 0, 0], [1, 0, 0], [0, 1, 0]],
        [[0, 1, 2]],
        {"f": np.array([0.0, 2.0, 1.0])},
    )
    clipped = clip_polydata(poly, origin=(0, 0, 0), normal=(1, 0, 0))
    # Cut point on edge (-1,0,0)-(1,0,0) at x=0 should carry f=1.0.
    on_plane = np.abs(clipped.points[:, 0]) < 1e-9
    cut_edge_pts = clipped.points[on_plane]
    assert len(cut_edge_pts) > 0
    f = clipped.point_data["f"][on_plane]
    y = clipped.points[on_plane][:, 1]
    bottom = np.abs(y) < 1e-9
    assert np.allclose(f[bottom], 1.0)


def test_clip_zero_normal_rejected():
    poly = PolyData([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    with pytest.raises(ValueError):
        clip_polydata(poly, (0, 0, 0), (0, 0, 0))


def test_clip_empty_input():
    assert clip_polydata(PolyData.empty(), (0, 0, 0), (1, 0, 0)).num_points == 0


@settings(max_examples=20, deadline=None)
@given(
    nx=st.floats(-1, 1), ny=st.floats(-1, 1), nz=st.floats(0.1, 1),
    off=st.floats(-0.5, 0.5),
)
def test_property_clip_partition(nx, ny, nz, off):
    """Clipping by (n) and (-n) partitions the surface area."""
    img = sphere_field(n=21)
    sphere = contour(img, [1.0], "dist")
    origin = (off, 0, 0)
    normal = (nx, ny, nz)
    a = clip_polydata(sphere, origin, normal).surface_area()
    b = clip_polydata(sphere, origin, tuple(-c for c in normal)).surface_area()
    assert a + b == pytest.approx(sphere.surface_area(), rel=1e-6)


# ---------------------------------------------------------------------------
# threshold
def tet_grid():
    """Two tets sharing a face, with point and cell fields."""
    points = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
    )
    cells = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    return UnstructuredGrid(
        points,
        cells,
        point_data={"p": np.array([0.0, 1.0, 2.0, 3.0, 4.0])},
        cell_data={"c": np.array([10.0, 20.0])},
    )


def test_threshold_cell_field():
    out = threshold(tet_grid(), "c", 15, 25)
    assert out.num_cells == 1
    assert np.allclose(out.cell_data["c"], [20.0])
    assert out.num_points == 4  # compacted


def test_threshold_point_field_all_vs_any():
    grid = tet_grid()
    strict = threshold(grid, "p", 0.5, 4.5, mode="all")
    assert strict.num_cells == 1  # only cell 1 has all points in [0.5, 4.5]
    loose = threshold(grid, "p", 0.5, 4.5, mode="any")
    assert loose.num_cells == 2


def test_threshold_empty_result():
    out = threshold(tet_grid(), "c", 99, 100)
    assert out.num_cells == 0
    assert out.num_points == 0


def test_threshold_unknown_field_and_mode():
    with pytest.raises(KeyError):
        threshold(tet_grid(), "zzz", 0, 1)
    with pytest.raises(ValueError):
        threshold(tet_grid(), "c", 0, 1, mode="most")


# ---------------------------------------------------------------------------
# merge_blocks
def test_merge_blocks_offsets_and_volume():
    mb = MultiBlockDataSet()
    g1 = tet_grid()
    g2 = UnstructuredGrid(
        g1.points + np.array([10.0, 0, 0]),
        g1.cells.copy(),
        point_data={"p": g1.point_data["p"] * 2},
        cell_data={"c": g1.cell_data["c"] * 2},
    )
    mb.append(g1)
    mb.append(None)
    mb.append(g2)
    merged = merge_blocks(mb)
    assert merged.num_points == 10
    assert merged.num_cells == 4
    assert merged.total_volume() == pytest.approx(g1.total_volume() + g2.total_volume())
    assert np.allclose(merged.cell_data["c"], [10, 20, 20, 40])


def test_merge_blocks_empty():
    merged = merge_blocks(MultiBlockDataSet())
    assert merged.num_points == 0 and merged.num_cells == 0


def test_merge_blocks_drops_uncommon_fields():
    g1 = tet_grid()
    g2 = tet_grid()
    del g2.point_data["p"]
    mb = MultiBlockDataSet([g1, g2])
    merged = merge_blocks(mb)
    assert "p" not in merged.point_data
    assert "c" in merged.cell_data


# ---------------------------------------------------------------------------
# resample_to_image
def test_resample_constant_field():
    grid = tet_grid()
    grid.point_data["p"] = np.full(5, 7.0)
    img = resample_to_image(grid, (8, 8, 8))
    inside = img.field("p")[img.field("p") != 0]
    assert np.allclose(inside, 7.0)
    assert inside.size > 0


def test_resample_bounds_and_dims():
    grid = tet_grid()
    img = resample_to_image(grid, (5, 6, 7))
    assert img.dims == (5, 6, 7)
    b = img.bounds
    gb = grid.bounds
    assert b == pytest.approx(gb)
    with pytest.raises(ValueError):
        resample_to_image(grid, (1, 5, 5))
    with pytest.raises(KeyError):
        resample_to_image(grid, (4, 4, 4), fields=["nope"])


def test_resample_empty_grid():
    empty = UnstructuredGrid(np.zeros((0, 3)), np.zeros((0, 4), dtype=np.int64),
                             point_data={})
    empty.point_data = {}
    img = resample_to_image(empty, (4, 4, 4), fields=[])
    assert img.dims == (4, 4, 4)


def test_resample_selected_fields_only():
    grid = tet_grid()
    grid.point_data["q"] = np.arange(5, dtype=float)
    img = resample_to_image(grid, (4, 4, 4), fields=["q"])
    assert "q" in img.point_data and "p" not in img.point_data


@pytest.mark.parametrize("flat_axis, direction", [(2, "z"), (0, "x")])
def test_resample_planar_mesh_gets_positive_spacing(flat_axis, direction):
    """A mesh with no extent along one axis used to resample to spacing
    0 there; the ray-marcher then divided by it on every step and drew
    nothing from any direction."""
    import warnings

    from repro.vtk.render import Camera, volume_render

    rng = np.random.default_rng(8)
    points = rng.uniform(-1.0, 1.0, (200, 3)) * (2.0, 3.0, 4.0)
    points[:, flat_axis] = 0.75
    plane = UnstructuredGrid(points, np.zeros((0, 4), dtype=np.int64),
                             point_data={"f": rng.random(200) + 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        img = resample_to_image(plane, (9, 9, 9))
        assert min(img.spacing) > 0.0
        others = [s for axis, s in enumerate(img.spacing) if axis != flat_axis]
        assert img.spacing[flat_axis] == pytest.approx(np.mean(others))
        # The layers straddle the plane; the in-plane axes keep the mesh bounds.
        b = img.bounds
        assert (b[2 * flat_axis] + b[2 * flat_axis + 1]) / 2 == pytest.approx(0.75)
        assert [b[i] for i in range(6) if i // 2 != flat_axis] == pytest.approx(
            [plane.bounds[i] for i in range(6) if i // 2 != flat_axis]
        )
        # A slab around the plane carries the field, the far layers do not.
        layers = np.moveaxis(img.field("f"), flat_axis, 0)
        assert layers[4].all() and not layers[0].any() and not layers[8].any()
        along = volume_render(img, "f", camera=Camera.fit(img.bounds, direction=direction),
                              width=32, height=32)
    assert along.rgba[..., 3].max() > 0.0


def test_resample_single_point_mesh_gets_unit_spacing():
    dot = UnstructuredGrid([(1.0, 2.0, 3.0)], np.zeros((0, 4), dtype=np.int64), point_data={"f": [5.0]})
    img = resample_to_image(dot, (3, 3, 3))
    assert img.spacing == (1.0, 1.0, 1.0) and img.origin == (0.0, 1.0, 2.0)
    assert img.field("f")[1, 1, 1] == 5.0
