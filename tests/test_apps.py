"""Tests for the three applications: Gray-Scott, Mandelbulb, DWI."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    DWIDataset,
    DWIProxyRank,
    GrayScottParams,
    GrayScottSolver,
    MandelbulbBlock,
    mandelbulb_field,
)
from repro.sim import Simulation
from repro.testing import build_mona_world, run_all


# ---------------------------------------------------------------------------
# Gray-Scott
def test_grayscott_single_rank_steps():
    solver = GrayScottSolver((16, 16, 16), params=GrayScottParams(noise=0.0))
    u0 = solver.total_mass("u")
    solver.step_local()
    assert solver.iteration == 1
    assert solver.total_mass("u") != u0  # dynamics happened
    assert np.isfinite(solver.u).all() and np.isfinite(solver.v).all()


def test_grayscott_seed_structure():
    solver = GrayScottSolver((16, 16, 16), params=GrayScottParams(noise=0.0))
    v = solver.v[1:-1, 1:-1, 1:-1]
    assert v.max() == pytest.approx(0.25)  # central seed
    assert v.min() == 0.0
    # Seed is in the center.
    assert v[8, 8, 8] == pytest.approx(0.25)
    assert v[0, 0, 0] == 0.0


def test_grayscott_mass_conserved_when_pure_diffusion():
    """With F=k=0 and no reaction coupling (v=0), u diffusion conserves
    total mass on the periodic domain."""
    params = GrayScottParams(F=0.0, k=0.0, noise=0.0)
    solver = GrayScottSolver((12, 12, 12), params=params)
    solver.v[:] = 0.0  # remove the reaction term entirely
    m0 = solver.total_mass("u")
    for _ in range(5):
        solver.step_local()
    assert solver.total_mass("u") == pytest.approx(m0, rel=1e-12)


def test_grayscott_validation():
    from types import SimpleNamespace

    with pytest.raises(ValueError):
        GrayScottSolver((8, 8, 8), proc_dims=(2, 1, 1))  # no comm
    with pytest.raises(ValueError):  # comm size mismatch
        GrayScottSolver((8, 8, 8), proc_dims=(4, 1, 1), comm=SimpleNamespace(size=2))
    with pytest.raises(ValueError):  # empty subdomain (rank 3 gets nothing)
        GrayScottSolver((2, 2, 2), proc_dims=(4, 1, 1), rank=3, comm=SimpleNamespace(size=4))


def test_grayscott_local_block_geometry():
    solver = GrayScottSolver((16, 8, 8), params=GrayScottParams(noise=0.0))
    block = solver.local_block("v")
    assert block.dims == (16, 8, 8)
    assert block.origin == (0.0, 0.0, 0.0)
    assert "v" in block.point_data


def test_grayscott_distributed_matches_single_rank():
    """Domain decomposition invariance: 4 ranks with halo exchange
    produce exactly the single-rank field."""
    dims = (12, 12, 12)
    params = GrayScottParams(noise=0.0)
    reference = GrayScottSolver(dims, params=params)
    for _ in range(3):
        reference.step_local()

    sim = Simulation()
    _, _, comms = build_mona_world(sim, 4)
    solvers = [
        GrayScottSolver(dims, proc_dims=(2, 2, 1), rank=r, comm=comms[r], params=params)
        for r in range(4)
    ]

    def body(solver):
        for _ in range(3):
            yield from solver.step()
        return solver.local_block("v")

    blocks = run_all(sim, [body(s) for s in solvers])
    ref_v = reference.v[1:-1, 1:-1, 1:-1]
    for solver, block in zip(solvers, blocks):
        (x0, x1), (y0, y1), (z0, z1) = solver.ranges
        assert np.allclose(block.field("v"), ref_v[x0:x1, y0:y1, z0:z1], atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(px=st.sampled_from([1, 2]), py=st.sampled_from([1, 2]), pz=st.sampled_from([1, 2]))
def test_property_grayscott_decomposition_invariance(px, py, pz):
    nproc = px * py * pz
    dims = (8, 8, 8)
    params = GrayScottParams(noise=0.0)
    reference = GrayScottSolver(dims, params=params)
    reference.step_local()

    sim = Simulation()
    _, _, comms = build_mona_world(sim, nproc)
    solvers = [
        GrayScottSolver(dims, proc_dims=(px, py, pz), rank=r, comm=comms[r], params=params)
        for r in range(nproc)
    ]

    def body(solver):
        yield from solver.step()
        return solver.local_block("v")

    blocks = run_all(sim, [body(s) for s in solvers])
    ref_v = reference.v[1:-1, 1:-1, 1:-1]
    for solver, block in zip(solvers, blocks):
        (x0, x1), (y0, y1), (z0, z1) = solver.ranges
        assert np.allclose(block.field("v"), ref_v[x0:x1, y0:y1, z0:z1], atol=1e-12)


# ---------------------------------------------------------------------------
# Mandelbulb
def test_mandelbulb_field_origin_is_bounded():
    """The origin is inside the set: it never escapes."""
    field = mandelbulb_field((3, 3, 3), (-0.1, -0.1, -0.1), (0.1, 0.1, 0.1), max_iterations=10)
    center = field[1, 1, 1]
    assert center == 10.0


def test_mandelbulb_far_points_escape_fast():
    field = mandelbulb_field((2, 2, 2), (5.0, 5.0, 5.0), (0.1, 0.1, 0.1), max_iterations=10)
    assert np.all(field <= 2)


def test_mandelbulb_field_deterministic():
    args = ((8, 8, 8), (-1.2, -1.2, -1.2), (0.3, 0.3, 0.3))
    assert np.array_equal(mandelbulb_field(*args), mandelbulb_field(*args))


def test_mandelbulb_blocks_tile_z_axis():
    blocks = [MandelbulbBlock(i, 4, resolution=(8, 8, 8)) for i in range(4)]
    z_spans = [(b.origin[2], b.origin[2] + b.spacing[2] * 7) for b in blocks]
    for (lo0, hi0), (lo1, hi1) in zip(z_spans, z_spans[1:]):
        assert hi0 == pytest.approx(lo1)
    assert z_spans[0][0] == pytest.approx(-1.2)
    assert z_spans[-1][1] == pytest.approx(1.2)


def test_mandelbulb_block_generate():
    block = MandelbulbBlock(1, 2, resolution=(6, 6, 6), max_iterations=6)
    img = block.generate()
    assert img.dims == (6, 6, 6)
    field = img.field("iterations")
    assert field.min() >= 0 and field.max() <= 6
    assert field.max() > field.min()  # there is structure


def test_mandelbulb_block_validation():
    with pytest.raises(ValueError):
        MandelbulbBlock(5, 4)


# ---------------------------------------------------------------------------
# DWI
def test_dwi_growth_curve_matches_fig1a_anchors():
    ds = DWIDataset()
    assert ds.total_cells(1) == pytest.approx(4.7e7, rel=1e-6)
    assert ds.total_cells(30) == pytest.approx(5.53e8, rel=1e-6)
    cells = [ds.total_cells(i) for i in range(1, 31)]
    assert all(a < b for a, b in zip(cells, cells[1:]))  # monotone growth
    # File sizes track cells.
    assert ds.file_size_bytes(30) / ds.file_size_bytes(1) == pytest.approx(
        cells[-1] / cells[0], rel=1e-6
    )
    # Final snapshot is tens of GiB, like the real dataset's largest files.
    assert 10 * 2**30 < ds.file_size_bytes(30) < 60 * 2**30


def test_dwi_partition_cells_sum_to_total():
    ds = DWIDataset()
    for it in (1, 15, 30):
        total = sum(ds.partition_cells(it, p) for p in range(ds.partitions))
        assert total == ds.total_cells(it)


def test_dwi_validation():
    ds = DWIDataset()
    with pytest.raises(ValueError):
        ds.total_cells(0)
    with pytest.raises(ValueError):
        ds.total_cells(31)
    with pytest.raises(ValueError):
        ds.partition_cells(1, 512)
    with pytest.raises(ValueError):
        ds.files_for_rank(1, 32, 32)


def test_dwi_virtual_file_sizes():
    ds = DWIDataset()
    vp = ds.virtual_file(30, 0)
    assert vp.nbytes == pytest.approx(ds.partition_cells(30, 0) * 50.0, rel=1e-6)


def test_dwi_real_file_is_a_tet_mesh_with_velocity():
    ds = DWIDataset()
    mesh = ds.real_file(15, 3, scale=2e5)
    assert mesh.num_cells >= 6
    assert mesh.cells.shape[1] == 4
    assert "velocity" in mesh.point_data
    assert mesh.total_volume() > 0
    # Deterministic generation.
    again = ds.real_file(15, 3, scale=2e5)
    assert np.array_equal(mesh.points, again.points)


def test_dwi_real_mesh_grows_with_iteration():
    ds = DWIDataset()
    early = ds.real_file(1, 0, scale=1e4)
    late = ds.real_file(30, 0, scale=1e4)
    assert late.num_cells > early.num_cells
    # Velocity magnitudes grow as the plume accelerates.
    assert late.point_data["velocity"].mean() > early.point_data["velocity"].mean()


def test_dwi_files_distributed_evenly():
    ds = DWIDataset()
    nranks = 32
    all_parts = []
    for rank in range(nranks):
        parts = ds.files_for_rank(5, rank, nranks)
        assert len(parts) == 512 // nranks
        all_parts.extend(parts)
    assert sorted(all_parts) == list(range(512))


def test_dwi_proxy_rank_iteration():
    ds = DWIDataset()
    proxy = DWIProxyRank(ds, rank=0, nranks=32, virtual=True)
    items = list(proxy.read_iteration(1))
    assert len(items) == 16
    block_ids = [b for b, _ in items]
    assert block_ids == list(range(0, 512, 32))
    proxy_real = DWIProxyRank(ds, rank=1, nranks=256, virtual=False, scale=5e5)
    items = list(proxy_real.read_iteration(2))
    assert len(items) == 2
    assert items[0][1].num_cells > 0
