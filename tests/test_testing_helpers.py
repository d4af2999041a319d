"""Tests for the repro.testing harness utilities themselves."""

import pytest

from repro.sim import Simulation
from repro.testing import build_margo_ring, build_mona_world, drive, run_all, run_until


def test_run_until_returns_first_holding_time():
    sim = Simulation()
    flag = []

    def setter(sim):
        yield sim.timeout(3.0)
        flag.append(True)

    sim.spawn(setter(sim))
    t = run_until(sim, lambda: bool(flag), step=0.5, max_time=60)
    assert 3.0 <= t <= 3.5


def test_run_until_timeout_is_relative():
    sim = Simulation()
    sim.run(until=1000.0)  # the clock is already far along
    with pytest.raises(TimeoutError):
        run_until(sim, lambda: False, step=1.0, max_time=5.0)
    assert sim.now < 1010.0  # bounded by the relative deadline


def test_run_until_sees_condition_inside_final_window():
    """A condition that first holds between the last coarse checkpoint
    and the deadline must be observed, not misreported as a timeout."""
    sim = Simulation()
    flag = []

    def setter(sim):
        yield sim.timeout(4.7)
        flag.append(True)

    sim.spawn(setter(sim))
    # Coarse checkpoints land at 4.0 and (clamped) 5.0; only an
    # event-granular final window can catch the flag set at 4.7.
    t = run_until(sim, lambda: bool(flag), step=4.0, max_time=5.0)
    assert t == pytest.approx(4.7)


def test_run_until_transient_condition_near_deadline():
    """Even a condition that holds only transiently is seen if the state
    change happens inside the final window."""
    sim = Simulation()
    hits = []

    def blinker(sim):
        yield sim.timeout(9.5)
        hits.append("on")
        yield sim.timeout(0.01)
        hits.clear()

    sim.spawn(blinker(sim))
    t = run_until(sim, lambda: bool(hits), step=9.0, max_time=10.0)
    assert t == pytest.approx(9.5)


def test_drive_returns_task_value():
    sim = Simulation()

    def body():
        yield sim.timeout(1.0)
        return "value"

    assert drive(sim, body()) == "value"


def test_drive_propagates_exceptions():
    sim = Simulation()

    def body():
        yield sim.timeout(0.5)
        raise ValueError("inside")

    with pytest.raises(ValueError, match="inside"):
        drive(sim, body())


def test_run_all_detects_deadlock():
    sim = Simulation()

    def stuck(sim):
        yield sim.event("never")

    with pytest.raises(RuntimeError, match="deadlock"):
        run_all(sim, [stuck(sim)])


def test_run_all_timeout():
    sim = Simulation()

    def slow(sim):
        yield sim.timeout(100.0)

    with pytest.raises(TimeoutError):
        run_all(sim, [slow(sim)], max_time=1.0)


def test_run_all_preserves_order():
    sim = Simulation()

    def body(sim, tag, delay):
        yield sim.timeout(delay)
        return tag

    results = run_all(sim, [body(sim, "a", 3.0), body(sim, "b", 1.0)])
    assert results == ["a", "b"]


def test_build_margo_ring_placement():
    sim = Simulation()
    fabric, margos = build_margo_ring(sim, 4, procs_per_node=2)
    assert margos[0].node_index == margos[1].node_index == 0
    assert margos[2].node_index == 1


def test_build_mona_world_comm_consistency():
    sim = Simulation()
    _, instances, comms = build_mona_world(sim, 3)
    assert [c.rank for c in comms] == [0, 1, 2]
    assert len({c.comm_id for c in comms}) == 1


def test_importing_the_helpers_does_not_import_pytest():
    """``drive`` / ``run_until`` serve examples and benchmarks: a process
    that wants them must not pay for pytest (nor the hypothesis plugin
    it loads)."""
    import os
    import subprocess
    import sys

    import repro

    probe = (
        "import sys\n"
        "import repro.testing, repro.bench.harness, repro.core.pipelines\n"
        "print(sorted(m for m in ('pytest', 'hypothesis') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == "[]"
