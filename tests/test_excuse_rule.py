"""Nobody waits on the departed (DESIGN §11 "the excuse rule", docs/protocols.md §2/§4).

A live member's word about who is gone is authoritative: the first NO
that carries a view decides a 2PC prepare round, teardown broadcasts
reach everyone but are awaited only from members nobody has reported
gone, the bootstrap probe remembers who answered, and the VTK library
load is paid once per process. Failure *detection* stays SWIM's job: a
silent member nobody has dropped still costs its deadline.
"""

import pytest

from repro.catalyst import VtkRuntime
from repro.core import Deployment
from repro.core.client import EXCUSED, DistributedPipelineHandle
from repro.core.pipelines import IsoSurfaceScript
from repro.mercury import RpcError
from repro.na import VirtualPayload
from repro.sim import Simulation
from repro.ssg import SwimConfig
from repro.testing import drive, run_until

FAST_SWIM = SwimConfig(period=0.2, suspect_timeout=1.0)
BLOCK = VirtualPayload((16, 16, 16), "int32")
DEADLINE = DistributedPipelineHandle.CONTROL_TIMEOUT


def make_stack(sim, nservers, tenants=("default",), **config):
    """Converged servers and, per tenant, a connected client with its
    own ``render`` pipeline: ``(deployment, [(client, handle), ...])``."""
    deployment = Deployment(sim, swim_config=FAST_SWIM)
    drive(sim, deployment.start_servers(nservers), max_time=300)
    run_until(sim, deployment.converged, max_time=300)
    config = {"script": IsoSurfaceScript(field="iterations", isovalues=[4.0]),
              "width": 16, "height": 16, **config}
    sessions = []
    for i, tenant in enumerate(tenants):
        margo, client = deployment.make_client(node_index=40 + i, tenant=tenant)
        drive(sim, client.connect())
        drive(sim, deployment.deploy_pipeline(margo, "render", "libcolza-iso.so", config,
                                              tenant=tenant), max_time=300)
        sessions.append((client, client.distributed_pipeline_handle("render")))
    return deployment, sessions


def timed(sim, gen, max_time=600):
    """``(result, simulated seconds)`` of one client operation."""

    def body():
        t0 = sim.now
        result = yield from gen
        return result, sim.now - t0

    return drive(sim, body(), max_time=max_time)


def replace_handler(daemon, method, handler):
    daemon.provider.unexport(method)
    daemon.provider.export(method, handler)


def never_answers(sim):
    def handler(_input):
        yield sim.event("silence")

    return handler


def crash_and_wait_until_dropped(sim, deployment, victim):
    victim.crash()
    run_until(
        sim,
        lambda: all(victim.address not in d.provider.view() for d in deployment.live_daemons()),
        max_time=60,
    )


# ---------------------------------------------------------------------------
# R1: the first NO that carries a view decides the round
def test_one_dissenter_decides_the_round_without_the_silent_member():
    sim = Simulation(seed=41)
    deployment, [(client, handle)] = make_stack(sim, 2)
    survivor, victim = deployment.live_daemons()
    crash_and_wait_until_dropped(sim, deployment, victim)
    proposed = tuple(sorted(client.view))  # stale: still lists the victim
    assert victim.address in proposed

    (votes, dissent), elapsed = timed(sim, handle._prepare(1, proposed))
    assert elapsed < 0.010
    assert dissent["reason"] == "view-mismatch" and dissent["view"] == [survivor.address]
    assert votes == [dissent]  # the silent member's vote is still out

    # The whole activate: one decided round, its abort not awaited from
    # the member the dissenter dropped, one backoff, a unanimous round.
    view, elapsed = timed(sim, handle.activate(1))
    assert view == [survivor.address]
    assert elapsed < 0.1  # two deadlines (10 s) before the excuse rule
    assert list(sim.trace.find("colza.activate"))[-1].tags["attempts"] == 2
    # The late votes and acks (all timeouts) are absorbed, not orphaned.
    sim.run(until=sim.now + 2 * DEADLINE)
    drive(sim, handle.deactivate(1))


def test_silence_without_dissent_still_costs_the_deadline():
    """Telling slow from dead is SWIM's job: with no NO on the table the
    round needs every vote, so a silent member is waited for in full."""
    sim = Simulation(seed=42)
    deployment, [(client, handle)] = make_stack(sim, 2)
    for daemon in deployment.live_daemons():
        replace_handler(daemon, "activate_prepare", never_answers(sim))
    proposed = tuple(sorted(client.view))
    (votes, dissent), elapsed = timed(sim, handle._prepare(1, proposed))
    assert dissent is None
    assert elapsed == pytest.approx(DEADLINE)
    assert sorted(v["dead"] for v in votes) == list(proposed)


def test_one_silent_member_among_yes_votes_costs_the_deadline_too():
    sim = Simulation(seed=43)
    deployment, [(client, handle)] = make_stack(sim, 3)
    silent = deployment.live_daemons()[1]
    replace_handler(silent, "activate_prepare", never_answers(sim))
    (votes, dissent), elapsed = timed(sim, handle._prepare(1, tuple(sorted(client.view))))
    assert dissent is None and elapsed == pytest.approx(DEADLINE)
    assert [v["vote"] for v in votes] == ["yes", "yes", "no"]


def test_late_votes_never_leak_into_the_next_round():
    """A vote that arrives after its round was decided belongs to that
    round: the next round's tally must not see it."""
    sim = Simulation(seed=44)
    deployment, [(client, handle)] = make_stack(sim, 3)
    first, slow, dissenter = deployment.live_daemons()
    real = slow.provider._rpc_activate_prepare

    def slow_prepare(input):
        yield sim.timeout(0.2)
        return (yield from real(input))

    replace_handler(slow, "activate_prepare", slow_prepare)
    # The dissenter lost sight of nobody; it just is not ready yet.
    dissenter.provider.leaving = True
    proposed = tuple(sorted(client.view))

    def body():
        _votes, dissent = yield from handle._prepare(1, proposed)
        assert dissent["reason"] == "leaving"
        dissenter.provider.leaving = False
        yield sim.timeout(0.1)  # round 1's slow YES is still in flight
        votes, dissent = yield from handle._prepare(1, proposed)
        return votes, dissent

    votes, dissent = drive(sim, body())
    assert dissent is None and [v["vote"] for v in votes] == ["yes"] * 3


# ---------------------------------------------------------------------------
# R2: teardown reaches everyone, waits only for members nobody reports gone
@pytest.mark.parametrize("live_member_silent", [False, True])
def test_abort_excuses_only_members_an_ack_names_gone(live_member_silent):
    sim = Simulation(seed=45)
    deployment, [(client, handle)] = make_stack(sim, 3)
    a, b, c = deployment.live_daemons()
    drive(sim, handle.activate(1))
    crash_and_wait_until_dropped(sim, deployment, c)
    if live_member_silent:
        replace_handler(b, "deactivate", never_answers(sim))

    results, elapsed = timed(sim, handle.abort(1, keep_data=True))
    assert results[0] == {"status": "deactivated", "gone": [c.address]}
    if live_member_silent:
        # b is alive in every view: nobody excuses it, it costs its deadline.
        assert elapsed == pytest.approx(DEADLINE)
        assert isinstance(results[1], RpcError)
    else:
        assert elapsed < 0.010  # the crashed member's deadline before
        assert results[1] == results[0]
        assert results[2] == EXCUSED  # an explicit placeholder, not a KeyError
    assert handle.frozen_view == ()


@pytest.mark.parametrize("excused_by", ["an ack's gone list", "the caller"])
def test_a_falsely_dropped_member_still_receives_the_teardown(excused_by):
    sim = Simulation(seed=46)
    deployment, [(client, handle)] = make_stack(sim, 3)
    a, b, c = deployment.live_daemons()
    drive(sim, handle.activate(1))
    real = c.provider._rpc_deactivate

    def slow_deactivate(input):
        yield sim.timeout(1.0)
        return (yield from real(input))

    # c is alive, only slow to answer.
    replace_handler(c, "deactivate", slow_deactivate)
    assert c.provider.frozen
    if excused_by == "the caller":
        teardown = handle._broadcast(
            "deactivate", {"pipeline": handle.name, "iteration": 1},
            timeout=DEADLINE, tolerate_errors=True, excused={c.address},
        )
    else:
        a.provider.view = lambda: [a.address, b.address]  # a wrongly believes c is gone
        teardown = handle.abort(1)
    results, elapsed = timed(sim, teardown)
    assert elapsed < 0.010 and results[2] == EXCUSED
    assert c.provider.frozen  # not there yet: the client did not wait
    sim.run(until=sim.now + 1.5)
    assert not c.provider.frozen  # the teardown was sent all the same
    again = drive(sim, client.pipeline_handle(c.address, "render").deactivate(1))
    assert again == "not-active"


def test_ordinary_deactivate_reply_is_untouched():
    sim = Simulation(seed=47)
    _deployment, [(_client, handle)] = make_stack(sim, 2)
    drive(sim, handle.activate(1))
    assert drive(sim, handle.deactivate(1)) == ["deactivated", "deactivated"]


def test_crash_recovery_restages_nothing_and_skips_the_dead_members_deadline():
    sim = Simulation(seed=48)
    deployment, [(client, handle)] = make_stack(sim, 3, replication_factor=2)
    handle.stage_timeout, handle.data_timeout = 2.0, 30.0
    blocks = [(i, BLOCK) for i in range(4)]
    drive(sim, handle.run_resilient_iteration(1, blocks), max_time=3000)
    core = sim.metrics.scope("core")
    staged_before = core.counter("blocks_staged").value
    victim = deployment.live_daemons()[-1]
    crashed_at = []

    def crash_after_last_stage(span):
        if (span.name == "colza.stage" and span.tags.get("iteration") == 2
                and span.tags.get("block") == len(blocks) - 1):
            sim.trace.on_end.remove(crash_after_last_stage)
            crashed_at.append(sim.now)
            victim.crash()

    sim.trace.on_end.append(crash_after_last_stage)
    view, _ = timed(sim, handle.run_resilient_iteration(2, blocks, max_attempts=8),
                    max_time=3000)
    iteration = list(sim.trace.find("colza.iteration", iteration=2, outcome="ok"))[-1]
    assert victim.address not in view
    assert core.counter("blocks_staged").value - staged_before == len(blocks)
    assert core.counter("restage_fallbacks").value == 0
    # SWIM detection (~1.5 s) + one retry backoff + recovery; the abort
    # no longer adds CONTROL_TIMEOUT for the crashed member's ack.
    assert iteration.end - crashed_at[0] < DEADLINE


# ---------------------------------------------------------------------------
# bootstrap: ask the server that answered last time first
def test_refresh_pays_for_a_dead_candidate_once():
    sim = Simulation(seed=49)
    deployment, [(client, _handle)] = make_stack(sim, 3)
    first = deployment.live_daemons()[0]
    assert deployment.group_file.candidates()[0] == first.address
    _, healthy = timed(sim, client.refresh_view())
    first.crash()  # a crash leaves the stale entry in the group file
    _, once = timed(sim, client.refresh_view())
    _, again = timed(sim, client.refresh_view())
    assert once == pytest.approx(client.CONTROL_TIMEOUT, abs=0.01)
    assert again < 0.001 and again == pytest.approx(healthy, rel=0.5)
    # The remembered contact dies too: fall back to file order.
    deployment.live_daemons()[0].crash()
    view, _ = timed(sim, client.refresh_view())
    assert deployment.live_daemons()[0].address in view


# ---------------------------------------------------------------------------
# R3: the library load is single-flight per process
def first_executes(sim, sessions, iteration=1):
    """Every tenant runs one iteration concurrently; seconds for all."""
    tasks = [
        sim.spawn(handle.run_resilient_iteration(iteration, [(0, BLOCK)]), name=f"t{i}")
        for i, (_client, handle) in enumerate(sessions)
    ]
    t0 = sim.now
    run_until(sim, lambda: all(t.finished for t in tasks), step=0.05, max_time=600)
    for task in tasks:
        task.done.value
    return sim.now - t0


def test_two_tenants_first_execute_pays_one_library_init():
    sim = Simulation(seed=50)
    _deployment, sessions = make_stack(sim, 2, tenants=("alpha", "beta"))
    assert 8.0 < first_executes(sim, sessions) < 8.3  # 16.1 s charged per pipeline
    assert first_executes(sim, sessions, iteration=2) < 0.3


def test_single_tenant_first_execute_is_unchanged():
    sim = Simulation(seed=50)
    _deployment, sessions = make_stack(sim, 2)
    assert 8.0 < first_executes(sim, sessions) < 8.3


def test_a_loader_killed_mid_init_releases_its_waiters_unloaded():
    sim = Simulation(seed=51)
    runtime = VtkRuntime(sim)
    log = []

    def charge(seconds):
        log.append(("charge", sim.now, seconds))
        yield sim.timeout(seconds)

    def pipeline(tag):
        yield from runtime.load(charge, 8.0)
        log.append((tag, sim.now))

    loader = sim.spawn(pipeline("loader"), name="loader")
    waiter = sim.spawn(pipeline("waiter"), name="waiter")
    sim.run(until=3.0)
    assert log == [("charge", 0.0, 8.0)]  # one load in flight, one waiter
    loader.kill()  # abort_on_death kills the co-processing task
    assert not runtime.loaded
    sim.run(until=20.0)
    # The waiter was released, found the process unloaded, paid in full.
    assert waiter.finished and runtime.loaded
    assert log[1:] == [("charge", 3.0, 8.0), ("waiter", 11.0)]
    late = sim.spawn(pipeline("late"), name="late")
    sim.run(until=21.0)
    assert late.finished and log[-1] == ("late", 20.0)
