"""Unit tests for small supporting modules: distribution policies,
reporting tables, VTK parallel adapters, the bench harness."""

import pytest

from repro.bench import Table
from repro.core.distribution import get_policy, register_policy
from repro.mona import SUM
from repro.na import Address
from repro.sim import Simulation
from repro.testing import build_mona_world, run_all
from repro.vtk.parallel import Communicator, MonaController, MPIController


# ---------------------------------------------------------------------------
# distribution policies
def servers(n):
    return [Address(f"na+sim://nid{i:05d}/s{i}") for i in range(n)]


def test_block_id_mod_policy():
    policy = get_policy("block_id_mod")
    srv = servers(3)
    assert policy(0, {}, srv) == srv[0]
    assert policy(4, {}, srv) == srv[1]
    assert policy(5, {}, srv) == srv[2]


def test_unknown_policy():
    with pytest.raises(KeyError):
        get_policy("round-trip")


def test_register_custom_policy():
    register_policy("first", lambda b, m, s: s[0])
    srv = servers(3)
    assert get_policy("first")(99, {}, srv) == srv[0]


def test_policies_balance_modulo():
    """block_id_mod distributes evenly for dense ids (the Colza default)."""
    policy = get_policy("block_id_mod")
    srv = servers(4)
    counts = {s: 0 for s in srv}
    for b in range(64):
        counts[policy(b, {}, srv)] += 1
    assert set(counts.values()) == {16}


# ---------------------------------------------------------------------------
# reporting
def test_table_render():
    table = Table("My Title", ["a", "bb"])
    table.add(1, "x")
    table.add(22, "yyy")
    text = table.render()
    assert text.startswith("My Title")
    assert text.splitlines()[2].startswith("a")


def test_table_cell_count_validation():
    table = Table("t", ["a", "b"])
    with pytest.raises(ValueError):
        table.add(1)


# ---------------------------------------------------------------------------
# VTK parallel adapters
def test_mona_controller_collectives():
    sim = Simulation()
    _, _, comms = build_mona_world(sim, 3)
    controllers = [MonaController(c) for c in comms]
    assert controllers[1].rank == 1
    assert controllers[0].kind == "mona"

    def body(ctrl):
        return (yield from ctrl.communicator.allreduce(ctrl.rank + 1, op=SUM))

    assert run_all(sim, [body(c) for c in controllers]) == [6, 6, 6]


def test_mpi_controller_kind():
    from repro.mpi import MpiWorld
    from repro.na import Fabric

    sim = Simulation()
    world = MpiWorld(sim, Fabric(sim), 2)
    ctrl = MPIController(world.comm_world(0))
    assert ctrl.kind == "mpi"
    assert ctrl.communicator.rank == 0


# ---------------------------------------------------------------------------
# bench harness (small-scale smoke)
def test_harness_runs_small_experiment():
    from repro.bench.harness import ColzaExperiment
    from repro.core.pipelines import IsoSurfaceScript
    from repro.na import VirtualPayload

    exp = ColzaExperiment(
        n_servers=2,
        n_clients=2,
        script=IsoSurfaceScript(field="f", isovalues=[1.0]),
        swim_period=0.5,
        seed=5,
        nodes=64,
        client_nodes_offset=30,
    ).setup()
    block = VirtualPayload((10_000,), "float64")
    timing = exp.run_iteration(1, [[(0, block)], [(1, block)]])
    assert timing.n_servers == 2
    assert timing.execute > 0
    timing2 = exp.run_iteration(2, [[(0, block)], [(1, block)]])
    assert timing2.execute < timing.execute  # no init the second time
    assert len(exp.timings) == 2
