"""Tests for RNG streams, tracing, and the cluster/launch model."""

import numpy as np
import pytest

from repro.sim import RngRegistry, Simulation
from repro.sim.platform import Cluster, PlatformParams


# ---------------------------------------------------------------------------
# RngRegistry
def test_rng_streams_are_deterministic():
    a = RngRegistry(seed=5).stream("gossip").random(4)
    b = RngRegistry(seed=5).stream("gossip").random(4)
    assert np.allclose(a, b)


def test_rng_streams_differ_by_name():
    reg = RngRegistry(seed=5)
    a = reg.stream("a").random(4)
    b = reg.stream("b").random(4)
    assert not np.allclose(a, b)


def test_rng_streams_differ_by_seed():
    a = RngRegistry(seed=1).stream("x").random(4)
    b = RngRegistry(seed=2).stream("x").random(4)
    assert not np.allclose(a, b)


def test_rng_stream_is_cached():
    reg = RngRegistry(seed=0)
    assert reg.stream("x") is reg.stream("x")


def test_rng_adding_stream_does_not_perturb_existing():
    reg1 = RngRegistry(seed=9)
    _ = reg1.stream("existing").random(2)
    mid1 = reg1.stream("existing").random(2)

    reg2 = RngRegistry(seed=9)
    _ = reg2.stream("existing").random(2)
    _ = reg2.stream("newcomer").random(100)
    mid2 = reg2.stream("existing").random(2)
    assert np.allclose(mid1, mid2)


# ---------------------------------------------------------------------------
# Tracer
def test_tracer_spans_and_durations():
    sim = Simulation()

    def body(sim):
        span = sim.trace.begin("execute", iteration=1)
        yield sim.timeout(2.5)
        sim.trace.end(span)

    sim.spawn(body(sim))
    sim.run()
    assert sim.trace.durations("execute", iteration=1) == [2.5]
    assert sim.trace.durations("execute", iteration=2) == []


def test_tracer_counters():
    sim = Simulation()
    sim.trace.add("messages", 3)
    sim.trace.add("messages")
    assert sim.trace.counters["messages"] == 4


def test_tracer_unfinished_span_excluded():
    sim = Simulation()
    sim.trace.begin("open")
    assert sim.trace.durations("open") == []


def test_tracer_clear():
    sim = Simulation()
    span = sim.trace.begin("x")
    sim.trace.end(span)
    sim.trace.add("c")
    sim.trace.clear()
    assert list(sim.trace.spans) == []
    assert sim.trace.counters == {}


def test_span_duration_requires_end():
    sim = Simulation()
    span = sim.trace.begin("x")
    with pytest.raises(ValueError):
        _ = span.duration


# ---------------------------------------------------------------------------
# Cluster / LaunchModel


def test_cluster_validation():
    sim = Simulation()
    with pytest.raises(ValueError):
        Cluster(sim, nodes=0)
    cluster = Cluster(sim, nodes=2)
    with pytest.raises(ValueError):
        cluster.place("p", 5)


def test_srun_delay_single_vs_gang():
    """Elastic single-daemon launches are faster and far less variable
    than gang launches (the Fig. 4 premise)."""
    sim = Simulation(seed=3)
    cluster = Cluster(sim, nodes=8)
    singles = [cluster.launcher.srun_delay(1) for _ in range(200)]
    gangs = [cluster.launcher.srun_delay(32) for _ in range(200)]
    assert np.mean(singles) < np.mean(gangs)
    assert np.std(singles) < np.std(gangs)
    # Calibration band from the paper: static restarts average ~16 s
    # spanning ~5-40 s; elastic additions are stable around 3-4 s.
    assert 10.0 < np.mean(gangs) < 25.0
    assert max(gangs) > 25.0
    assert 2.5 < np.mean(singles) < 5.0


def test_srun_delay_validation():
    sim = Simulation()
    cluster = Cluster(sim, nodes=1)
    with pytest.raises(ValueError):
        cluster.launcher.srun_delay(0)


def test_service_init_delay_near_nominal():
    sim = Simulation(seed=0)
    params = PlatformParams(service_init_s=1.0)
    cluster = Cluster(sim, nodes=1, params=params)
    delays = [cluster.launcher.service_init_delay() for _ in range(100)]
    assert all(0.9 <= d <= 1.1 for d in delays)


def test_kill_delay_constant():
    sim = Simulation()
    cluster = Cluster(sim, nodes=1)
    assert cluster.launcher.kill_delay() == cluster.params.kill_s
