"""SWIM stress tests: concurrent churn (joins, leaves, crashes)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.margo import MargoInstance
from repro.na import Fabric
from repro.sim import Simulation
from repro.ssg import GroupFile, SSGAgent, SwimConfig, converged
from repro.testing import build_ssg_group, drive, run_until

FAST = SwimConfig(period=0.2, suspect_timeout=1.0)


def new_agent(sim, fabric, group_file, idx):
    margo = MargoInstance(sim, fabric, f"churn-{idx}", idx % 16)
    return SSGAgent(margo, group_file, config=FAST)


def test_concurrent_joins_converge():
    sim = Simulation(seed=61)
    fabric, group_file, agents = build_ssg_group(sim, 2, config=FAST)
    run_until(sim, lambda: converged(agents), max_time=60)
    # Four newcomers join at the same instant.
    newcomers = [new_agent(sim, fabric, group_file, 10 + i) for i in range(4)]
    tasks = [sim.spawn(a.start(), name=f"join-{i}") for i, a in enumerate(newcomers)]
    run_until(sim, lambda: all(t.finished for t in tasks), max_time=60)
    agents.extend(newcomers)
    run_until(sim, lambda: converged(agents), max_time=120)
    assert all(len(a.members()) == 6 for a in agents)


def test_join_while_another_leaves():
    sim = Simulation(seed=62)
    fabric, group_file, agents = build_ssg_group(sim, 4, config=FAST)
    run_until(sim, lambda: converged(agents), max_time=60)
    leaver = agents[2]
    newcomer = new_agent(sim, fabric, group_file, 20)
    t1 = sim.spawn(leaver.leave(), name="leave")
    t2 = sim.spawn(newcomer.start(), name="join")
    run_until(sim, lambda: t1.finished and t2.finished, max_time=60)
    alive = [a for a in agents if a is not leaver] + [newcomer]
    run_until(sim, lambda: converged(alive), max_time=120)
    truth = sorted(a.address for a in alive)
    for a in alive:
        assert a.members() == truth


def test_simultaneous_crashes_detected():
    sim = Simulation(seed=63)
    fabric, group_file, agents = build_ssg_group(sim, 6, config=FAST)
    run_until(sim, lambda: converged(agents), max_time=60)
    victims = agents[4:]
    for v in victims:
        v.running = False
        v.margo.crash()
    survivors = agents[:4]
    run_until(sim, lambda: converged(survivors), max_time=200)
    truth = sorted(a.address for a in survivors)
    for a in survivors:
        assert a.members() == truth


def test_majority_crash_still_converges():
    sim = Simulation(seed=64)
    fabric, group_file, agents = build_ssg_group(sim, 5, config=FAST)
    run_until(sim, lambda: converged(agents), max_time=60)
    for v in agents[1:4]:
        v.running = False
        v.margo.crash()
    survivors = [agents[0], agents[4]]
    run_until(sim, lambda: converged(survivors), max_time=300)
    assert survivors[0].members() == survivors[1].members()
    assert len(survivors[0].members()) == 2


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    initial=st.integers(min_value=2, max_value=5),
    joins=st.integers(min_value=0, max_value=3),
    crashes=st.integers(min_value=0, max_value=1),
)
def test_property_churn_sequences_converge(seed, initial, joins, crashes):
    """Any mix of joins then crashes eventually converges to exactly
    the live set (SWIM's eventual-consistency guarantee)."""
    sim = Simulation(seed=seed)
    fabric, group_file, agents = build_ssg_group(sim, initial, config=FAST)
    run_until(sim, lambda: converged(agents), max_time=120)
    for i in range(joins):
        a = new_agent(sim, fabric, group_file, 30 + i)
        drive(sim, a.start(), max_time=60)
        agents.append(a)
    rng_victims = agents[:crashes] if len(agents) > crashes else []
    for v in rng_victims:
        v.running = False
        v.margo.crash()
    live = [a for a in agents if a.running]
    run_until(sim, lambda: converged(live), max_time=400)
    truth = sorted(a.address for a in live)
    for a in live:
        assert a.members() == truth
