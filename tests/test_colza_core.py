"""Integration tests for the Colza service: lifecycle, 2PC, elasticity."""

import numpy as np
import pytest

from repro.core import ColzaAdmin, Deployment
from repro.core.backend import create_backend
from repro.core.pipelines import MPI_COMM_REGISTRY, CatalystBackend, IsoSurfaceScript
from repro.core.provider import mona_address_of
from repro.na import Address
from repro.sim import Simulation
from repro.ssg import SwimConfig
from repro.testing import drive, run_until
from repro.vtk import ImageData

FAST_SWIM = SwimConfig(period=0.2, suspect_timeout=1.0)


def sphere_block(n=14, offset=(0.0, 0.0, 0.0), extent=1.5):
    spacing = 2 * extent / (n - 1)
    img = ImageData(dims=(n, n, n), origin=tuple(-extent + o for o in offset), spacing=(spacing,) * 3)
    coords = img.point_coords()
    img.set_field("dist", np.linalg.norm(coords - np.asarray(offset), axis=1).reshape(n, n, n))
    return img


def make_colza(sim, nservers, nblocks=4):
    """Deployment + connected client + deployed iso pipeline."""
    deployment = Deployment(sim, swim_config=FAST_SWIM)
    drive(sim, deployment.start_servers(nservers, first_node=0), max_time=300)
    run_until(sim, deployment.converged, max_time=300)
    client_margo, client = deployment.make_client(node_index=40)
    drive(sim, client.connect())
    script = IsoSurfaceScript(field="dist", isovalues=[1.0])
    drive(
        sim,
        deployment.deploy_pipeline(
            client_margo, "render", "libcolza-iso.so", {"script": script, "width": 48, "height": 48}
        ),
    )
    handle = client.distributed_pipeline_handle("render")
    return deployment, client_margo, client, handle


def run_iteration(sim, handle, iteration, blocks):
    def body():
        view = yield from handle.activate(iteration)
        for block_id, payload in blocks:
            yield from handle.stage(iteration, block_id, payload)
        yield from handle.execute(iteration)
        yield from handle.deactivate(iteration)
        return view

    return drive(sim, body(), max_time=2000)


def rank0_backend(deployment):
    """The backend on the comm-rank-0 server (smallest margo address)."""
    first = min(deployment.live_daemons(), key=lambda d: d.address)
    return first.provider.pipelines["render"]


# ---------------------------------------------------------------------------
def test_backend_registry():
    # An unknown library's error names every registered one.
    with pytest.raises(KeyError, match="libcolza-dwi.so") as err:
        create_backend("libnope.so", None, "p")
    assert "libcolza-iso.so" in str(err.value)


def test_full_iteration_produces_image():
    sim = Simulation(seed=1)
    deployment, _, _, handle = make_colza(sim, nservers=3)
    blocks = [(i, sphere_block()) for i in range(6)]
    view = run_iteration(sim, handle, 1, blocks)
    assert len(view) == 3
    backend = rank0_backend(deployment)
    image = backend.last_results["image"]
    assert image is not None
    assert image.coverage() > 0.05  # the sphere rendered
    # Non-rank-0 servers composited away their image.
    others = [
        d.provider.pipelines["render"].last_results
        for d in deployment.live_daemons()
        if d.provider.pipelines["render"] is not backend
    ]
    assert all(r["image"] is None for r in others)
    # Staged data cleaned up at deactivate.
    for d in deployment.live_daemons():
        assert d.provider.pipelines["render"].staged == {}


def test_stage_distribution_by_block_id():
    sim = Simulation(seed=2)
    deployment, _, _, handle = make_colza(sim, nservers=3)
    blocks = [(i, sphere_block(8)) for i in range(9)]

    def body():
        yield from handle.activate(1)
        for block_id, payload in blocks:
            yield from handle.stage(1, block_id, payload)
        counts = {
            d.name: len(d.provider.pipelines["render"].staged[1])
            for d in deployment.live_daemons()
        }
        yield from handle.execute(1)
        yield from handle.deactivate(1)
        return counts

    counts = drive(sim, body(), max_time=2000)
    assert sorted(counts.values()) == [3, 3, 3]


def test_stage_before_activate_rejected():
    sim = Simulation(seed=3)
    _, _, _, handle = make_colza(sim, nservers=2)
    with pytest.raises(RuntimeError, match="before activate"):
        drive(sim, handle.stage(1, 0, sphere_block(8)))


def test_execute_inactive_iteration_rejected():
    from repro.mercury import RpcError

    sim = Simulation(seed=4)
    _, _, _, handle = make_colza(sim, nservers=2)

    def body():
        yield from handle.activate(1)
        yield from handle.deactivate(1)
        handle.frozen_view = tuple(sorted(handle.client.view))
        yield from handle.execute(99)

    with pytest.raises(RpcError, match="inactive"):
        drive(sim, body(), max_time=2000)


def test_elastic_grow_changes_comm_size_and_preserves_image():
    """The elasticity invariant: after adding servers, the next
    activate rebuilds the communicator and the same data renders to the
    same image."""
    sim = Simulation(seed=5)
    deployment, client_margo, client, handle = make_colza(sim, nservers=2)
    blocks = [(i, sphere_block()) for i in range(4)]

    run_iteration(sim, handle, 1, blocks)
    backend0 = rank0_backend(deployment)
    image_before = backend0.last_results["image"].copy()
    assert backend0.comm.size == 2
    gen_before = backend0.coproc.process_module.controller_generation

    # Scale up by two servers; deploy the pipeline on them too.
    for node in (10, 11):
        drive(sim, deployment.add_server(node_index=node), max_time=300)
    run_until(sim, deployment.converged, max_time=300)
    admin = ColzaAdmin(client_margo)
    script = IsoSurfaceScript(field="dist", isovalues=[1.0])
    new_daemons = deployment.live_daemons()[-2:]
    for d in new_daemons:
        drive(
            sim,
            admin.create_pipeline(
                d.address, "render", "libcolza-iso.so",
                {"script": script, "width": 48, "height": 48},
            ),
        )

    view = run_iteration(sim, handle, 2, blocks)
    assert len(view) == 4
    backend0b = rank0_backend(deployment)
    assert backend0b.comm.size == 4
    assert backend0b.coproc.process_module.controller_generation > gen_before or backend0b is not backend0
    image_after = backend0b.last_results["image"]
    assert np.allclose(image_before.rgba, image_after.rgba, atol=1e-6)
    assert np.allclose(
        np.nan_to_num(image_before.depth, posinf=0),
        np.nan_to_num(image_after.depth, posinf=0),
        atol=1e-5,
    )


def test_elastic_shrink_via_admin_leave():
    sim = Simulation(seed=6)
    deployment, client_margo, client, handle = make_colza(sim, nservers=3)
    blocks = [(i, sphere_block(8)) for i in range(3)]
    run_iteration(sim, handle, 1, blocks)

    victim = deployment.live_daemons()[-1]
    admin = ColzaAdmin(client_margo)
    result = drive(sim, admin.request_leave(victim.address), max_time=300)
    assert result == "leaving"
    run_until(sim, lambda: not victim.running, max_time=300)
    run_until(sim, deployment.converged, max_time=300)
    assert len(deployment.live_daemons()) == 2

    def refresh_and_run():
        yield from client.refresh_view()
        return None

    drive(sim, refresh_and_run())
    view = run_iteration(sim, handle, 2, blocks)
    assert len(view) == 2


def test_leave_deferred_while_active():
    """Freezing: a leave requested mid-iteration is honored only at
    deactivate (§II-B)."""
    sim = Simulation(seed=7)
    deployment, client_margo, client, handle = make_colza(sim, nservers=3)
    victim = deployment.live_daemons()[-1]
    admin = ColzaAdmin(client_margo)
    blocks = [(i, sphere_block(8)) for i in range(3)]

    def body():
        yield from handle.activate(1)
        response = yield from admin.request_leave(victim.address)
        assert response == "deferred"
        assert victim.running  # still serving the active iteration
        for block_id, payload in blocks:
            yield from handle.stage(1, block_id, payload)
        yield from handle.execute(1)
        yield from handle.deactivate(1)
        return None

    drive(sim, body(), max_time=2000)
    assert victim.provider.leaving


def test_activate_2pc_blocks_until_view_agreement():
    """A client whose view is stale retries 2PC until the servers'
    views converge on the new member — and the agreed view includes it."""
    sim = Simulation(seed=8)
    deployment, client_margo, client, handle = make_colza(sim, nservers=2)
    blocks = [(0, sphere_block(8))]
    run_iteration(sim, handle, 1, blocks)

    # Add a server but do NOT wait for convergence or refresh the client.
    drive(sim, deployment.add_server(node_index=9), max_time=300)
    new = deployment.live_daemons()[-1]
    script = IsoSurfaceScript(field="dist", isovalues=[1.0])
    drive(
        sim,
        ColzaAdmin(client_margo).create_pipeline(
            new.address, "render", "libcolza-iso.so",
            {"script": script, "width": 48, "height": 48},
        ),
    )
    view = run_iteration(sim, handle, 2, blocks)
    assert len(view) == 3
    assert new.address in view


def test_mpi_mode_backend_rejects_membership_change():
    """Colza+MPI: static communicator, no elasticity."""
    from repro.mpi import MpiWorld

    sim = Simulation(seed=9)
    deployment = Deployment(sim, swim_config=FAST_SWIM)
    drive(sim, deployment.start_servers(2), max_time=300)
    run_until(sim, deployment.converged, max_time=300)

    world = MpiWorld(sim, deployment.fabric, 2, profile="craympich")
    daemons = sorted(deployment.live_daemons(), key=lambda d: d.address)
    for rank, daemon in enumerate(daemons):
        MPI_COMM_REGISTRY[daemon.margo.name] = world.comm_world(rank)

    client_margo, client = deployment.make_client(node_index=40)
    drive(sim, client.connect())
    script = IsoSurfaceScript(field="dist", isovalues=[1.0])
    drive(
        sim,
        deployment.deploy_pipeline(
            client_margo, "render", "libcolza-iso.so",
            {"script": script, "controller": "mpi", "width": 32, "height": 32},
        ),
    )
    handle = client.distributed_pipeline_handle("render")
    run_iteration(sim, handle, 1, [(0, sphere_block(8)), (1, sphere_block(8))])
    backend = rank0_backend(deployment)
    assert backend.last_results["image"] is not None

    # Membership change => the MPI pipeline must refuse.
    drive(sim, deployment.add_server(node_index=12), max_time=300)
    run_until(sim, deployment.converged, max_time=300)
    new = deployment.live_daemons()[-1]
    drive(
        sim,
        ColzaAdmin(client_margo).create_pipeline(
            new.address, "render", "libcolza-iso.so",
            {"script": script, "controller": "mpi", "width": 32, "height": 32},
        ),
    )
    from repro.mercury import RpcError

    with pytest.raises(RpcError, match="MPI world is frozen|no static MPI"):
        run_iteration(sim, handle, 2, [(0, sphere_block(8))])
    # Clean the registry for other tests.
    MPI_COMM_REGISTRY.clear()


def test_mona_address_mapping():
    a = Address("na+sim://nid00003/colza-7")
    assert mona_address_of(a).uri == "na+sim://nid00003/mona-colza-7"


def test_virtual_payload_iteration():
    """Paper-scale virtual blocks flow through the full stack."""
    from repro.na import VirtualPayload

    sim = Simulation(seed=10)
    deployment, _, _, handle = make_colza(sim, nservers=2)
    blocks = [(i, VirtualPayload((64, 64, 64), "int32")) for i in range(4)]
    run_iteration(sim, handle, 1, blocks)
    backend = rank0_backend(deployment)
    image = backend.last_results["image"]
    assert image is not None
    assert image.coverage() == 0.0  # virtual: blank frame, real control path
    # Compute was charged: execute spans exist with nonzero duration.
    durations = sim.trace.durations("pipeline.execute", iteration=1)
    assert len(durations) == 2
    assert all(d > 0 for d in durations)


# ---------------------------------------------------------------------------
# in-transit == in-situ: the composited image must not depend on how many
# servers share the blocks (the Catalyst-ADIOS2 oracle)
def test_iso_image_independent_of_server_count():
    from repro.bench.harness import ColzaExperiment
    from repro.vtk.render import Camera

    def level_block(block_id, level):
        """A 9^3 block, 8*block_id along x, whose field crosses ``level`` only."""
        img = ImageData(dims=(9, 9, 9), origin=(8.0 * block_id, 0.0, 0.0), spacing=(1.0,) * 3)
        ramp = level - 0.04 + 0.01 * np.arange(9.0)
        img.set_field("v", np.broadcast_to(ramp[None, None, :], (9, 9, 9)).copy())
        return img

    # Blocks go to server block_id % n: with 2 or 4 servers each server
    # sees a single iso-level and a degenerate local scalar range.
    blocks = [(i, level_block(i, level)) for i, level in enumerate([0.12, 0.25, 0.12, 0.25])]

    def composited(n_servers):
        exp = ColzaExperiment(
            n_servers=n_servers, n_clients=1,
            script=IsoSurfaceScript(field="v", isovalues=[0.12, 0.25]),
            width=64, height=64, seed=3, library="libcolza-iso.so",
            extra_config={"camera": Camera.fit((0.0, 32.0, 0.0, 8.0, 0.0, 8.0))},
        ).setup()
        exp.run_iteration(1, [blocks])
        triangles = [
            d.provider.pipelines["render"].last_results["local_triangles"]
            for d in exp.deployment.live_daemons()
        ]
        holders = min(n_servers, len(blocks))  # servers past the fourth hold no block
        assert triangles == [2048 // holders] * holders + [0] * (n_servers - holders)
        return rank0_backend(exp.deployment).last_results["image"]

    reference = composited(1)
    assert reference.coverage() > 0.5
    # Both colormap ends are on screen, so a per-server range would show.
    assert len(np.unique(reference.rgba[reference.rgba[..., 3] > 0], axis=0)) == 2
    # With 8 servers four have nothing to draw and contribute ``empty()``
    # frames: no storage, and nothing in the image.
    for n_servers in (2, 4, 8):
        image = composited(n_servers)
        assert image.rgba.tobytes() == reference.rgba.tobytes()
        assert image.depth.tobytes() == reference.depth.tobytes()
