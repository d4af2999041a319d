"""Tests for the VTK-style data model."""

import numpy as np
import pytest

from repro.vtk import ImageData, MultiBlockDataSet, PolyData, UnstructuredGrid


# ---------------------------------------------------------------------------
# ImageData
def test_image_data_basic():
    img = ImageData(dims=(3, 4, 5), origin=(1, 2, 3), spacing=(0.5, 1.0, 2.0))
    assert img.num_points == 60
    assert img.num_cells == 2 * 3 * 4
    assert img.bounds == (1, 2, 2, 5, 3, 11)


def test_image_data_field_validation():
    img = ImageData(dims=(2, 2, 2))
    img.set_field("u", np.zeros((2, 2, 2)))
    assert img.field("u").shape == (2, 2, 2)
    with pytest.raises(ValueError):
        img.set_field("bad", np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        ImageData(dims=(2, 2, 2), point_data={"bad": np.zeros((1, 1, 1))})
    with pytest.raises(ValueError):
        ImageData(dims=(0, 2, 2))


def test_image_point_coords_ordering():
    img = ImageData(dims=(2, 2, 2), spacing=(1, 1, 1))
    coords = img.point_coords()
    assert coords.shape == (8, 3)
    assert np.array_equal(coords[0], [0, 0, 0])
    assert np.array_equal(coords[1], [0, 0, 1])  # z fastest (C order)
    assert np.array_equal(coords[-1], [1, 1, 1])


def test_image_nbytes():
    img = ImageData(dims=(4, 4, 4))
    img.set_field("u", np.zeros((4, 4, 4)))
    assert img.nbytes == 64 * 8


# ---------------------------------------------------------------------------
# PolyData
def test_polydata_validation():
    with pytest.raises(ValueError):
        PolyData(np.zeros((3, 3)), [[0, 1, 5]])
    with pytest.raises(ValueError):
        PolyData(np.zeros((3, 3)), [[0, 1, -1]])
    with pytest.raises(ValueError):
        PolyData(np.zeros((3, 3)), [[0, 1, 2]], {"f": np.zeros(2)})


def test_polydata_area_unit_triangle():
    poly = PolyData([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    assert poly.surface_area() == pytest.approx(0.5)
    assert poly.num_points == 3 and poly.num_triangles == 1


def test_polydata_concatenate_offsets_and_common_fields():
    a = PolyData([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], {"f": np.ones(3), "g": np.zeros(3)})
    b = PolyData([[0, 0, 1], [1, 0, 1], [0, 1, 1]], [[0, 1, 2]], {"f": np.full(3, 2.0)})
    merged = PolyData.concatenate([a, b])
    assert merged.num_points == 6
    assert merged.num_triangles == 2
    assert np.array_equal(merged.triangles[1], [3, 4, 5])
    assert "f" in merged.point_data and "g" not in merged.point_data
    assert merged.surface_area() == pytest.approx(1.0)


def test_polydata_concatenate_empty():
    assert PolyData.concatenate([]).num_points == 0
    assert PolyData.concatenate([PolyData.empty()]).num_triangles == 0


# ---------------------------------------------------------------------------
# UnstructuredGrid
def unit_tet():
    points = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    return UnstructuredGrid(points, [[0, 1, 2, 3]])


def test_tet_volume():
    assert unit_tet().total_volume() == pytest.approx(1 / 6)


def test_ugrid_validation():
    with pytest.raises(ValueError):
        UnstructuredGrid(np.zeros((2, 3)), [[0, 1, 2, 5]])
    with pytest.raises(ValueError):
        UnstructuredGrid(np.zeros((4, 3)), [[0, 1, 2, 3]], {"f": np.zeros(3)})
    with pytest.raises(ValueError):
        UnstructuredGrid(np.zeros((4, 3)), [[0, 1, 2, 3]], {}, {"c": np.zeros(2)})


def test_ugrid_nbytes_positive():
    grid = unit_tet()
    grid.point_data["v"] = np.zeros(4)
    assert grid.nbytes > 0


# ---------------------------------------------------------------------------
# MultiBlock
def test_multiblock():
    mb = MultiBlockDataSet([unit_tet(), None, unit_tet()])
    assert len(mb.blocks) == 3
    assert len(mb.non_empty()) == 2
    assert mb.blocks[1] is None
