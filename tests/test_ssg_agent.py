"""Integration tests for the SWIM agent: join, leave, death, convergence."""

import pytest

from repro.sim import Simulation
from repro.ssg import GroupFile, SSGAgent, SwimConfig, converged
from repro.testing import build_margo_ring, build_ssg_group, drive, run_until

FAST = SwimConfig(period=0.2, suspect_timeout=1.0)


@pytest.fixture
def sim():
    return Simulation(seed=11)


def test_founder_starts_alone(sim):
    _, _, agents = build_ssg_group(sim, 1, config=FAST)
    assert agents[0].members() == [agents[0].address]
    assert converged(agents)


def test_two_member_join_converges(sim):
    _, _, agents = build_ssg_group(sim, 2, config=FAST)
    t = run_until(sim, lambda: converged(agents), max_time=30)
    assert sorted(a.address for a in agents) == agents[0].members()
    assert t < 10.0


def test_eight_member_group_converges(sim):
    _, _, agents = build_ssg_group(sim, 8, config=FAST)
    run_until(sim, lambda: converged(agents), max_time=60)
    truth = sorted(a.address for a in agents)
    for agent in agents:
        assert agent.members() == truth


def test_join_propagates_within_seconds(sim):
    """Fig. 4's elastic premise: membership info about a new member
    reaches everyone in ~1-2 s with default-ish parameters."""
    fabric, group_file, agents = build_ssg_group(sim, 6, config=FAST)
    run_until(sim, lambda: converged(agents), max_time=60)

    from repro.margo import MargoInstance

    margo = MargoInstance(sim, fabric, "late-joiner", 7)
    newcomer = SSGAgent(margo, group_file, config=FAST)
    t0 = sim.now
    drive(sim, newcomer.start())
    agents.append(newcomer)
    t = run_until(sim, lambda: converged(agents), max_time=60)
    assert t - t0 < 5.0


def test_graceful_leave_propagates(sim):
    _, _, agents = build_ssg_group(sim, 5, config=FAST)
    run_until(sim, lambda: converged(agents), max_time=60)
    leaver = agents[2]
    drive(sim, leaver.leave())
    assert not leaver.running
    remaining = [a for a in agents if a is not leaver]
    run_until(sim, lambda: converged(remaining), max_time=60)
    for agent in remaining:
        assert leaver.address not in agent.members()


def test_crash_detected_and_removed(sim):
    fabric, _, agents = build_ssg_group(sim, 5, config=FAST)
    run_until(sim, lambda: converged(agents), max_time=60)
    victim = agents[1]
    # Crash: margo endpoint disappears without a LEFT announcement.
    victim.running = False
    victim._loop_ult.kill()
    victim.margo.finalize()
    survivors = [a for a in agents if a is not victim]
    t = run_until(
        sim,
        lambda: all(victim.address not in a.members() for a in survivors),
        max_time=120,
    )
    # Detection needs probe + indirect probe + suspicion timeout.
    assert t < 60.0
    run_until(sim, lambda: converged(survivors), max_time=120)


def test_observer_sees_join_and_leave(sim):
    events = {i: [] for i in range(3)}

    def factory(i):
        def observer(event, member):
            events[i].append((event, member))

        return observer

    fabric, group_file, agents = build_ssg_group(
        sim, 3, config=FAST, observer_factory=factory
    )
    run_until(sim, lambda: converged(agents), max_time=60)
    # Agent 0 should have seen both later members join.
    joined_0 = [m for (e, m) in events[0] if e == "joined"]
    assert set(joined_0) == {agents[1].address, agents[2].address}

    drive(sim, agents[2].leave())
    run_until(sim, lambda: converged(agents[:2]), max_time=60)
    left_0 = [m for (e, m) in events[0] if e == "left"]
    assert agents[2].address in left_0


def test_group_file_tracks_membership(sim):
    _, group_file, agents = build_ssg_group(sim, 3, config=FAST)
    assert len(group_file.addresses) == 3
    drive(sim, agents[0].leave())
    assert len(group_file.addresses) == 2
    assert agents[0].address not in group_file.candidates()


def test_start_twice_rejected(sim):
    _, _, agents = build_ssg_group(sim, 1, config=FAST)
    with pytest.raises(RuntimeError):
        drive(sim, agents[0].start())


def test_no_bootstrap_reachable_raises(sim):
    from repro.mercury import RpcError
    from repro.margo import MargoInstance
    from repro.na import Address, Fabric

    fabric = Fabric(sim)
    group_file = GroupFile()
    group_file.add(Address("na+sim://nid00099/ghost"))
    margo = MargoInstance(sim, fabric, "joiner", 0)
    agent = SSGAgent(margo, group_file, config=FAST)
    with pytest.raises(RpcError):
        drive(sim, agent.start())


def test_suspicion_refuted_by_live_member(sim):
    """A temporarily suspected live member is never permanently removed
    (no-churn safety): force a suspect record and let refutation run."""
    _, _, agents = build_ssg_group(sim, 4, config=FAST)
    run_until(sim, lambda: converged(agents), max_time=60)
    from repro.ssg.view import Status, Update

    a0, a1 = agents[0], agents[1]
    # a0 starts a rumor that a1 is suspect at its current incarnation.
    inc = a0.view.incarnation_of(a1.address)
    a0._apply_and_notify(Update(Status.SUSPECT, a1.address, inc))
    a0._queue_update(Update(Status.SUSPECT, a1.address, inc))
    run_until(sim, lambda: sim.now > 30, max_time=120)
    # Eventually a1 refutes with a higher incarnation and stays a member.
    assert all(a1.address in a.members() for a in agents)
    assert converged(agents)


def test_leave_when_not_running_is_noop(sim):
    fabric, margos = build_margo_ring(sim, 1, name_prefix="solo")
    agent = SSGAgent(margos[0], GroupFile(), config=FAST)
    drive(sim, agent.leave())  # never started: returns immediately
    assert not agent.running


def test_member_leaving_while_it_proxies_an_indirect_probe(sim):
    """A stale indirect probe of a departed member can still be in
    flight through the *next* leaver. Its ping_req handler outlives the
    graceful finalize; the reply must be dropped, not sent from the
    deregistered endpoint (``NAError`` out of ``sim.run``)."""
    _, _, agents = build_ssg_group(sim, 5, config=FAST)
    run_until(sim, lambda: converged(agents), max_time=60)
    origin, proxy, departed = agents[0], agents[1], agents[4]
    drive(sim, departed.leave())
    departed.margo.finalize()
    run_until(sim, lambda: converged(agents[:4]), max_time=60)

    probe = sim.spawn(origin._ping_req_one(proxy.address, departed.address), name="stale-probe")
    sim.run(until=sim.now + 0.01)

    (handler,) = [s for s in sim.trace.spans
                  if s.name == "hg.handler" and s.tags["rpc"] == "ssg/ping_req"
                  and s.task.startswith(proxy.margo.name) and s.end is None]
    # The proxy is now waiting on the departed member.
    # Not drive(): its 0.1 s polling step would outlast the ping deadline.
    leave = sim.spawn(proxy.leave(), name="leave")
    sim.run(until=sim.now + 0.02)
    assert leave.finished
    proxy.margo.finalize()
    assert handler.end is None  # ... and still is, with its endpoint gone

    sim.run(until=sim.now + 1.0)
    assert probe.finished and probe.done.value is False
    assert handler.end is not None and handler.tags["status"] == "dropped"
    run_until(sim, lambda: converged([agents[0], agents[2], agents[3]]), max_time=60)
