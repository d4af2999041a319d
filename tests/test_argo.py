"""Tests for the Argobots-sim layer: xstreams, ULTs, sync objects."""

import pytest

from repro.argo import Barrier, Mutex, Xstream
from repro.sim import Simulation


@pytest.fixture
def sim():
    return Simulation(seed=0)


# ---------------------------------------------------------------------------
# Xstream / Ult
def test_compute_serializes_on_one_xstream(sim):
    xs = Xstream(sim, "xs0")
    ends = []

    def ult(xs, out):
        yield from xs.compute(2.0)
        out.append(xs.sim.now)

    xs.spawn(ult(xs, ends))
    xs.spawn(ult(xs, ends))
    sim.run()
    assert ends == [2.0, 4.0]


def test_compute_on_distinct_xstreams_overlaps(sim):
    ends = []

    def ult(xs, out):
        yield from xs.compute(2.0)
        out.append(xs.sim.now)

    for i in range(2):
        xs = Xstream(sim, f"xs{i}")
        xs.spawn(ult(xs, ends))
    sim.run()
    assert ends == [2.0, 2.0]


def test_zero_compute_is_free(sim):
    xs = Xstream(sim, "xs")
    log = []

    def ult(xs, out):
        yield from xs.compute(0.0)
        out.append(xs.sim.now)
        yield xs.sim.timeout(0)

    xs.spawn(ult(xs, log))
    sim.run()
    assert log == [0.0]
    assert xs.core.busy_time() == 0.0


def test_negative_compute_rejected(sim):
    xs = Xstream(sim, "xs")

    def ult(xs):
        yield from xs.compute(-1.0)

    xs.spawn(ult(xs))
    with pytest.raises(ValueError):
        sim.run()


def test_blocking_wait_releases_core_but_spin_wait_holds_it(sim):
    """The paper's scheduling argument: an Argobots-style wait lets
    other ULTs use the core; an MPI-style spin blocks them."""

    def make_scenario(style):
        local_sim = Simulation()
        xs = Xstream(local_sim, "xs")
        door = local_sim.event("door")
        finished = {}

        def waiter(xs, door):
            if style == "yield":
                yield door
            else:
                yield from xs.spin_wait(door)
            finished["waiter"] = xs.sim.now

        def worker(xs):
            yield xs.sim.timeout(0.1)  # arrive after the waiter blocks
            yield from xs.compute(1.0)
            finished["worker"] = xs.sim.now

        def opener(local_sim, door):
            yield local_sim.timeout(5.0)
            door.succeed()

        xs.spawn(waiter(xs, door))
        xs.spawn(worker(xs))
        local_sim.spawn(opener(local_sim, door))
        local_sim.run()
        return finished

    yielding = make_scenario("yield")
    spinning = make_scenario("spin")
    assert yielding["worker"] == pytest.approx(1.1)  # core free while waiting
    assert spinning["worker"] == pytest.approx(6.0)  # core held until door opens


def test_ult_join_and_cancel(sim):
    xs = Xstream(sim, "xs")

    def body(xs):
        yield from xs.compute(1.0)
        return "done"

    ult = xs.spawn(body(xs))
    got = []

    def joiner(sim, ult, out):
        out.append((yield ult.task.join()))

    sim.spawn(joiner(sim, ult, got))
    sim.run()
    assert got == ["done"]
    assert ult.finished


def test_ult_kill(sim):
    xs = Xstream(sim, "xs")

    def body(xs):
        yield xs.sim.timeout(100.0)

    ult = xs.spawn(body(xs))
    sim.run(until=1.0)
    ult.kill()
    sim.run()
    assert ult.finished


def test_utilization(sim):
    xs = Xstream(sim, "xs")

    def body(xs):
        yield from xs.compute(2.0)
        yield xs.sim.timeout(2.0)

    xs.spawn(body(xs))
    sim.run()
    assert xs.utilization() == pytest.approx(0.5)
    fresh = Xstream(Simulation(), "idle")
    assert fresh.utilization() == 0.0


# ---------------------------------------------------------------------------
# Mutex
def test_mutex_mutual_exclusion(sim):
    mtx = Mutex(sim)
    order = []

    def worker(sim, mtx, tag, out):
        yield mtx.acquire()
        with mtx.held():
            out.append((tag, "in", sim.now))
            yield sim.timeout(1.0)

    sim.spawn(worker(sim, mtx, "a", order))
    sim.spawn(worker(sim, mtx, "b", order))
    sim.run()
    assert order == [("a", "in", 0.0), ("b", "in", 1.0)]


def test_mutex_locked_helper_releases_on_error(sim):
    sim.strict = False
    mtx = Mutex(sim)

    def failing_body(sim):
        yield sim.timeout(0.5)
        raise RuntimeError("inner")

    def holder(sim, mtx):
        yield mtx.acquire()
        with mtx.held():
            yield from failing_body(sim)

    def prober(sim, mtx, out):
        yield sim.timeout(1.0)
        yield mtx.acquire()
        with mtx.held():
            out.append(sim.now)

    got = []
    sim.spawn(holder(sim, mtx))
    sim.spawn(prober(sim, mtx, got))
    sim.run()
    assert got == [1.0]
    assert mtx._res.in_use == 0


# ---------------------------------------------------------------------------
# Barrier
def test_barrier_releases_all_at_once(sim):
    bar = Barrier(sim, parties=3)
    times = []

    def party(sim, bar, delay, out):
        yield sim.timeout(delay)
        yield bar.arrive()
        out.append(sim.now)

    for delay in (1.0, 2.0, 3.0):
        sim.spawn(party(sim, bar, delay, times))
    sim.run()
    assert times == [3.0, 3.0, 3.0]


def test_barrier_is_reusable(sim):
    bar = Barrier(sim, parties=2)
    generations = []

    def party(sim, bar, out):
        for _ in range(3):
            gen = yield bar.arrive()
            out.append(gen)

    sim.spawn(party(sim, bar, generations))
    sim.spawn(party(sim, bar, generations))
    sim.run()
    assert sorted(generations) == [0, 0, 1, 1, 2, 2]


def test_barrier_validation(sim):
    with pytest.raises(ValueError):
        Barrier(sim, parties=0)
