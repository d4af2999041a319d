"""Edge-coverage tests for the admin paths and provider management."""

import numpy as np
import pytest

from repro.core import ColzaAdmin, Deployment
from repro.core.backend import create_backend
from repro.core.pipelines import IsoSurfaceScript
from repro.mercury import RpcError
from repro.sim import Simulation
from repro.ssg import SwimConfig
from repro.testing import drive, run_until

FAST_SWIM = SwimConfig(period=0.2, suspect_timeout=1.0)


def make_stack(sim, nservers=2):
    deployment = Deployment(sim, swim_config=FAST_SWIM)
    drive(sim, deployment.start_servers(nservers), max_time=300)
    run_until(sim, deployment.converged, max_time=300)
    client_margo, client = deployment.make_client(node_index=40)
    drive(sim, client.connect())
    return deployment, client_margo, client


def test_create_destroy_pipeline_via_admin():
    sim = Simulation(seed=91)
    deployment, client_margo, _ = make_stack(sim)
    admin = ColzaAdmin(client_margo)
    server = deployment.live_daemons()[0]
    script = IsoSurfaceScript(field="u", isovalues=[1.0])
    drive(
        sim,
        admin.create_pipeline(server.address, "p1", "libcolza-catalyst.so", {"script": script}),
    )
    assert "p1" in server.provider.pipelines
    drive(sim, admin.destroy_pipeline(server.address, "p1"))
    assert "p1" not in server.provider.pipelines
    # Destroying a non-existent pipeline is a no-op (idempotent).
    drive(sim, admin.destroy_pipeline(server.address, "p1"))


def test_duplicate_pipeline_creation_fails_over_rpc():
    sim = Simulation(seed=92)
    deployment, client_margo, _ = make_stack(sim)
    admin = ColzaAdmin(client_margo)
    server = deployment.live_daemons()[0]
    script = IsoSurfaceScript(field="u", isovalues=[1.0])
    drive(
        sim,
        admin.create_pipeline(server.address, "dup", "libcolza-catalyst.so", {"script": script}),
    )

    def body():
        with pytest.raises(RpcError, match="already exists"):
            yield from admin.create_pipeline(
                server.address, "dup", "libcolza-catalyst.so", {"script": script}
            )

    drive(sim, body(), max_time=300)


def test_unknown_library_fails_over_rpc():
    sim = Simulation(seed=93)
    deployment, client_margo, _ = make_stack(sim)
    admin = ColzaAdmin(client_margo)
    server = deployment.live_daemons()[0]

    def body():
        with pytest.raises(RpcError, match="not found"):
            yield from admin.create_pipeline(server.address, "x", "libdoesnotexist.so", {})

    drive(sim, body(), max_time=300)


def test_catalyst_backend_config_validation():
    with pytest.raises(ValueError, match="CatalystScript"):
        create_backend("libcolza-iso.so", None, "p", {})
    with pytest.raises(ValueError, match="controller"):
        create_backend(
            "libcolza-iso.so", None, "p",
            {"script": IsoSurfaceScript(field="f", isovalues=[1.0]), "controller": "gasnet"},
        )


def test_deployment_remove_server_helper():
    sim = Simulation(seed=94)
    deployment, client_margo, _ = make_stack(sim, nservers=3)
    victim = deployment.live_daemons()[-1]
    # Elastic scale-down is the admin library's leave RPC.
    result = drive(sim, ColzaAdmin(client_margo).request_leave(victim.address), max_time=300)
    assert result == "leaving"
    run_until(sim, lambda: not victim.running, max_time=300)
    assert len(deployment.live_daemons()) == 2


def test_migrate_rpc_unknown_pipeline_errors():
    sim = Simulation(seed=95)
    deployment, client_margo, _ = make_stack(sim)
    server = deployment.live_daemons()[0]

    def body():
        with pytest.raises(RpcError, match="no pipeline"):
            yield from client_margo.provider_call(
                server.address, "colza", "migrate", {"pipeline": "ghost", "state": {}}
            )

    drive(sim, body(), max_time=300)


def test_backend_blocks_sorted_by_block_id():
    from repro.core.backend import Backend, StagedBlock

    backend = Backend(margo=None, name="b")
    backend.staged[1] = [
        StagedBlock(5, {}, None),
        StagedBlock(1, {}, None),
        StagedBlock(3, {}, None),
    ]
    assert [b.block_id for b in backend.blocks(1)] == [1, 3, 5]
    assert backend.blocks(99) == []
