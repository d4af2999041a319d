"""Tests for the black-box MPI simulator: semantics, timing, staticness."""

import numpy as np
import pytest

from repro.mona import BXOR, SUM
from repro.mpi import MpiComm, MpiWorld, WorldFrozenError
from repro.mpi.collective_cost import collective_time
from repro.na import Fabric, VirtualPayload
from repro.sim import Simulation
from repro.testing import run_all


def make_world(nprocs, profile="craympich", procs_per_node=32, seed=0):
    sim = Simulation(seed=seed)
    fabric = Fabric(sim)
    world = MpiWorld(sim, fabric, nprocs, profile=profile, procs_per_node=procs_per_node)
    return sim, world


# ---------------------------------------------------------------------------
# construction & staticness
def test_world_validation():
    sim = Simulation()
    fabric = Fabric(sim)
    with pytest.raises(ValueError):
        MpiWorld(sim, fabric, 0)
    with pytest.raises(ValueError):
        MpiWorld(sim, fabric, 2, profile="mvapich")


def test_world_cannot_grow_or_shrink():
    """The core premise: MPI_COMM_WORLD is frozen at init."""
    sim, world = make_world(4)
    with pytest.raises(WorldFrozenError):
        world.grow(2)
    with pytest.raises(WorldFrozenError):
        world.shrink([3])


# ---------------------------------------------------------------------------
# p2p
def test_mpi_send_recv():
    sim, world = make_world(2)
    c0, c1 = world.comm_world(0), world.comm_world(1)

    def rank0(c):
        yield from c.send(1, np.arange(5), tag=3)

    def rank1(c):
        return (yield from c.recv(source=0, tag=3))

    _, got = run_all(sim, [rank0(c0), rank1(c1)])
    assert np.array_equal(got, np.arange(5))


def test_mpi_blocking_recv_spins_on_core():
    """Footnote 3: a blocking MPI call holds its core. A co-located ULT
    on the same xstream cannot compute until the recv completes."""
    sim, world = make_world(2)
    c1 = world.comm_world(1)
    log = []

    def rank0(c, sim):
        yield sim.timeout(2.0)  # send late
        yield from c.send(1, "late")

    def rank1(c):
        payload = yield from c.recv(source=0)
        log.append(("recv", c.sim.now))
        return payload

    def colocated_worker(xs):
        yield xs.sim.timeout(0.01)  # arrive after recv blocks
        yield from xs.compute(0.1)
        log.append(("worker", xs.sim.now))

    sim.spawn(rank0(world.comm_world(0), sim))
    sim.spawn(rank1(c1))
    world.xstream(1).spawn(colocated_worker(world.xstream(1)))
    sim.run()
    times = dict(log)
    assert times["worker"] > 2.0  # starved until the recv completed


# ---------------------------------------------------------------------------
# collectives: correctness
@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_mpi_bcast(size):
    sim, world = make_world(size)

    def body(c):
        return (yield from c.bcast("data" if c.rank == 0 else None, root=0))

    assert run_all(sim, [body(world.comm_world(r)) for r in range(size)]) == ["data"] * size


def test_mpi_reduce_and_allreduce():
    size = 6
    sim, world = make_world(size)

    def body(c):
        partial = yield from c.reduce(c.rank, op=SUM, root=2)
        total = yield from c.allreduce(c.rank + 1, op=SUM)
        return (partial, total)

    results = run_all(sim, [body(world.comm_world(r)) for r in range(size)])
    expected_sum = sum(range(size))
    for r, (partial, total) in enumerate(results):
        assert total == sum(range(1, size + 1))
        assert partial == (expected_sum if r == 2 else None)


def test_mpi_gather_scatter_allgather_alltoall():
    size = 4
    sim, world = make_world(size)

    def body(c):
        gathered = yield from c.gather(c.rank * 2, root=0)
        mine = yield from c.scatter([10, 11, 12, 13] if c.rank == 0 else None, root=0)
        everyone = yield from c.allgather(mine)
        swapped = yield from c.alltoall([f"{c.rank}->{d}" for d in range(size)])
        return (gathered, mine, everyone, swapped)

    results = run_all(sim, [body(world.comm_world(r)) for r in range(size)])
    assert results[0][0] == [0, 2, 4, 6]
    assert [r[1] for r in results] == [10, 11, 12, 13]
    for r in results:
        assert r[2] == [10, 11, 12, 13]
    for rank, r in enumerate(results):
        assert r[3] == [f"{s}->{rank}" for s in range(size)]


def test_mpi_barrier_synchronizes():
    size = 3
    sim, world = make_world(size)
    exits = []

    def body(c, delay):
        yield c.sim.timeout(delay)
        yield from c.barrier()
        exits.append(c.sim.now)

    run_all(sim, [body(world.comm_world(r), 0.5 * (r + 1)) for r in range(size)])
    assert all(t >= 1.5 for t in exits)


def test_mpi_mismatched_collectives_detected():
    sim, world = make_world(2)

    def rank0(c):
        return (yield from c.barrier())

    def rank1(c):
        return (yield from c.bcast("x", root=1))

    with pytest.raises(RuntimeError, match="collective mismatch|ranks diverged"):
        run_all(sim, [rank0(world.comm_world(0)), rank1(world.comm_world(1))])


def test_mpi_split_by_color():
    """The Damaris pattern: split COMM_WORLD into clients and servers."""
    size = 6
    sim, world = make_world(size)

    def body(c):
        color = "server" if c.rank < 2 else "client"
        sub = yield from c.split(color, key=c.rank)
        ranks = yield from sub.allgather(c.rank)
        return (sub.rank, sub.size, ranks)

    results = run_all(sim, [body(world.comm_world(r)) for r in range(size)])
    assert results[0] == (0, 2, [0, 1])
    assert results[1] == (1, 2, [0, 1])
    assert results[2] == (0, 4, [2, 3, 4, 5])
    assert results[5] == (3, 4, [2, 3, 4, 5])


def test_mpi_split_undefined_color():
    sim, world = make_world(3)

    def body(c):
        color = None if c.rank == 1 else 0
        sub = yield from c.split(color)
        return None if sub is None else sub.size

    assert run_all(sim, [body(world.comm_world(r)) for r in range(3)]) == [2, None, 2]


def test_mpi_dup_and_subset():
    size = 4
    sim, world = make_world(size)
    comms = [world.comm_world(r) for r in range(size)]
    dups = [c.dup() for c in comms]
    assert len({d.comm_id for d in dups}) == 1
    assert dups[0].comm_id != comms[0].comm_id
    subs = [c.subset([1, 3]) for c in comms]
    assert subs[0] is None and subs[2] is None
    assert subs[1].rank == 0 and subs[3].rank == 1

    def body(c):
        return (yield from c.allgather(c.rank))

    assert run_all(sim, [body(subs[1]), body(subs[3])]) == [[0, 1], [0, 1]]


# ---------------------------------------------------------------------------
# collectives: calibrated timing
def test_table2_reduce_times_reproduced_at_512():
    """Vendor reduce at 512 procs hits the Table II anchors exactly."""
    for profile, anchors in (
        ("craympich", {8: 93.7, 2048: 92.3, 32768: 122.8}),
        ("openmpi", {8: 204.8, 2048: 816.3, 32768: 219104.5}),
    ):
        for nbytes, paper_us in anchors.items():
            t = collective_time(profile, "reduce", 512, nbytes)
            assert t == pytest.approx(paper_us * 1e-6, rel=1e-9)


def test_vendor_reduce_scales_with_depth():
    t512 = collective_time("craympich", "reduce", 512, 8)
    t64 = collective_time("craympich", "reduce", 64, 8)
    assert t64 == pytest.approx(t512 * (6 / 9), rel=1e-9)
    assert collective_time("craympich", "reduce", 1, 8) == 0.0


def test_openmpi_collapse_vs_cray():
    """OpenMPI's 32 KiB reduce is ~1800x Cray's (Table II headline)."""
    ompi = collective_time("openmpi", "reduce", 512, 32768)
    cray = collective_time("craympich", "reduce", 512, 32768)
    assert 1500 < ompi / cray < 2100


def test_unknown_collective_rejected():
    with pytest.raises(KeyError):
        collective_time("craympich", "allscan", 4, 8)


def test_mpi_reduce_simulated_duration_matches_cost_model():
    size = 8
    sim, world = make_world(size)
    payload = VirtualPayload((256,), "int64")  # 2 KiB

    def body(c):
        return (yield from c.reduce(payload, op=BXOR, root=0))

    start = sim.now
    run_all(sim, [body(world.comm_world(r)) for r in range(size)])
    expected = collective_time("craympich", "reduce", size, 2048)
    assert sim.now - start == pytest.approx(expected, rel=1e-6)


def test_mpi_p2p_faster_than_mona_internode():
    """Table I ordering holds end-to-end through the simulator."""
    def elapsed(build):
        sim, comm_pair = build()
        c0, c1 = comm_pair

        def rank0(c):
            yield from c.send(1, np.zeros(2048, dtype=np.uint8))

        def rank1(c):
            return (yield from c.recv(source=0))

        start = sim.now
        run_all(sim, [rank0(c0), rank1(c1)])
        return sim.now - start

    def build_mpi():
        sim, world = make_world(2, procs_per_node=1)
        return sim, (world.comm_world(0), world.comm_world(1))

    def build_mona():
        from repro.testing import build_mona_world

        sim = Simulation()
        _, _, comms = build_mona_world(sim, 2)
        return sim, (comms[0], comms[1])

    assert elapsed(build_mpi) < elapsed(build_mona)
