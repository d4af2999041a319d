"""Unit and property tests for the FIFO Resource."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulation


@pytest.fixture
def sim():
    return Simulation(seed=1)


def test_capacity_validation(sim):
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_single_capacity_serializes(sim):
    res = Resource(sim, capacity=1)
    log = []

    def worker(sim, res, tag):
        yield res.acquire()
        log.append((sim.now, tag, "start"))
        yield sim.timeout(2.0)
        res.release()
        log.append((sim.now, tag, "end"))

    sim.spawn(worker(sim, res, "a"))
    sim.spawn(worker(sim, res, "b"))
    sim.run()
    assert log == [
        (0.0, "a", "start"),
        (2.0, "a", "end"),
        (2.0, "b", "start"),
        (4.0, "b", "end"),
    ]


def test_capacity_two_overlaps(sim):
    res = Resource(sim, capacity=2)
    ends = []

    def worker(sim, res):
        yield from res.use(3.0)
        ends.append(sim.now)

    for _ in range(2):
        sim.spawn(worker(sim, res))
    sim.run()
    assert ends == [3.0, 3.0]


def test_fifo_ordering(sim):
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, res, tag):
        yield res.acquire()
        order.append(tag)
        yield sim.timeout(1.0)
        res.release()

    for tag in range(5):
        sim.spawn(worker(sim, res, tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_release_idle_rejected(sim):
    res = Resource(sim)
    with pytest.raises(RuntimeError):
        res.release()


def test_queue_length_and_in_use(sim):
    res = Resource(sim, capacity=1)

    def holder(sim, res):
        yield from res.use(10.0)

    def waiter(sim, res):
        yield from res.use(1.0)

    sim.spawn(holder(sim, res))
    sim.spawn(waiter(sim, res))
    sim.run(until=1.0)
    assert res.in_use == 1
    assert len(res._waiters) == 1


def test_cancel_pending_acquire(sim):
    res = Resource(sim, capacity=1)
    got = []

    def holder(sim, res):
        yield from res.use(5.0)

    sim.spawn(holder(sim, res))
    sim.run(until=0.5)
    pending = res.acquire()
    res.cancel(pending)
    assert len(res._waiters) == 0

    def late(sim, res):
        yield from res.use(1.0)
        got.append(sim.now)

    sim.spawn(late(sim, res))
    sim.run()
    assert got == [6.0]


def test_busy_time_accounting(sim):
    res = Resource(sim, capacity=1)

    def worker(sim, res):
        yield sim.timeout(1.0)
        yield from res.use(3.0)

    sim.spawn(worker(sim, res))
    sim.run()
    assert res.busy_time() == pytest.approx(3.0)


def test_use_releases_on_interrupt(sim):
    from repro.sim import Interrupt

    res = Resource(sim, capacity=1)
    log = []

    def victim(sim, res):
        try:
            yield from res.use(100.0)
        except Interrupt:
            log.append("interrupted")

    def successor(sim, res):
        yield from res.use(1.0)
        log.append(("done", sim.now))

    task = sim.spawn(victim(sim, res))
    sim.spawn(successor(sim, res))

    def killer(sim, task):
        yield sim.timeout(2.0)
        task.interrupt()

    sim.spawn(killer(sim, task))
    sim.run()
    assert log == ["interrupted", ("done", 3.0)]


@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    durations=st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=12),
)
def test_property_mutual_exclusion(capacity, durations):
    """At no instant do more than `capacity` workers hold the resource,
    and total throughput matches a direct bound."""
    sim = Simulation(seed=7)
    res = Resource(sim, capacity=capacity)
    active = [0]
    max_active = [0]

    def worker(sim, res, dur):
        yield res.acquire()
        active[0] += 1
        max_active[0] = max(max_active[0], active[0])
        yield sim.timeout(dur)
        active[0] -= 1
        res.release()

    for dur in durations:
        sim.spawn(worker(sim, res, dur))
    sim.run()
    assert max_active[0] <= capacity
    assert active[0] == 0
    # Makespan is at least total work / capacity and at most total work.
    total = sum(durations)
    assert sim.now <= total + 1e-9
    assert sim.now >= total / capacity - 1e-9
