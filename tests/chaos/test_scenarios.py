"""The chaos regression fleet: every scenario, pinned seeds, invariants.

Three layers of assurance:

1. every registered scenario holds the DESIGN §6 invariants at two
   pinned seeds (seeds that ever fail get appended here, never removed);
2. a subset re-runs under the same seed and must reproduce the exact
   trace digest — the determinism oracle that makes failures replayable;
3. a canary: deliberately breaking the provider's abort-on-death path
   must make at least one scenario fail, proving the harness can catch
   a real protocol regression (a fleet that cannot fail proves nothing).
"""

from dataclasses import fields

import pytest

from repro.chaos import (
    CrashFault,
    FaultPlan,
    GossipSuppression,
    HangFault,
    LinkFault,
    Partition,
    RdmaFault,
    SlowFault,
    run_scenario,
    scenario_names,
)

SEEDS = [0, 1]

#: (scenario, seed) pairs that failed once; appended, never removed.
PINNED = [
    ("drop_client_links", 3),  # a lost deactivate re-executed the iteration
]

#: Scenarios re-run twice per seed; chosen to cover every fault layer
#: (link, RDMA, process, SSG), the random-plan generator, and the
#: replication/recovery protocol (both the zero-restage path and the
#: full-restage fallback).
DETERMINISM_SUBSET = [
    "baseline_no_faults",
    "drop_storm",
    "partition_ejects_minority",
    "crash_mid_execute",
    "churn_stress",
    "combo_random",
    "replicated_crash_owner_mid_iteration",
    "replicated_owner_and_buddy_crash",
    "tenant_recovery_race",
    "autoscale_flapping_straggler",
    "slow_straggler_autoscale",
]


def test_fleet_is_large_enough():
    assert len(scenario_names()) >= 20


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", scenario_names())
def test_scenario_holds_invariants(name, seed):
    result = run_scenario(name, seed=seed)
    assert result.ok, (
        f"{name} (seed={seed}) violated invariants:\n" + "\n".join(result.violations)
    )


@pytest.mark.parametrize("name, seed", PINNED)
def test_pinned_seed_holds_invariants(name, seed):
    result = run_scenario(name, seed=seed)
    assert result.ok, "\n".join(result.violations)


@pytest.mark.parametrize("name", DETERMINISM_SUBSET)
def test_scenario_is_deterministic(name):
    first = run_scenario(name, seed=7)
    second = run_scenario(name, seed=7)
    assert first.digest == second.digest, f"{name} is not replayable under seed 7"
    assert first.info == second.info
    other = run_scenario(name, seed=8)
    assert other.digest != first.digest, f"{name} digest ignores the seed"


def test_shifted_plan_moves_every_time_and_keeps_the_rest():
    """Rows write fault times relative to the arm instant; ``shifted``
    is how they become absolute, for every fault kind."""
    plan = FaultPlan((
        LinkFault(0.0, 2.0, src="client", drop_p=0.5, dup_p=0.1, delay=0.02),
        Partition(1.0, 3.0, side_a=("colza-1",), side_b=("colza-2",)),
        CrashFault(at=0.5, server="colza-2"),
        HangFault(0.5, 1.1, server="colza-3", kill_at_end=True),
        SlowFault(0.0, 4.0, server="colza-0", factor=6.0),
        RdmaFault(0.0, 3.0, factor=300.0, initiator="client"),
        GossipSuppression(1.0, 2.2, target="colza-1", prober="colza-0"),
    ), note="every kind")
    moved = plan.shifted(17.25)
    assert moved.note == plan.note
    assert [type(f) for f in moved.faults] == [type(f) for f in plan.faults]
    for before, after in zip(plan.faults, moved.faults):
        for fld in fields(before):
            value = getattr(before, fld.name)
            if fld.name in ("start", "end", "at"):
                value += 17.25
            assert getattr(after, fld.name) == value, (before, fld.name)
    assert plan.shifted(0.0).describe() == plan.describe()


# ---------------------------------------------------------------------------
# the faults must actually bite (a fleet of no-ops would also "pass")
def test_crash_then_join_restores_capacity():
    result = run_scenario("crash_then_join", seed=1)
    sizes = result.info["view_sizes"]
    assert min(sizes) < sizes[0], "the crash never shrank the frozen view"
    assert sizes[-1] == sizes[0], "the replacement never rejoined the view"
    assert result.info["final_members"] == sizes[0]


def test_crash_mid_execute_exercises_abort_path():
    result = run_scenario("crash_mid_execute", seed=1)
    assert result.info["aborts"] >= 1
    assert result.info["view_sizes"] == [2]


@pytest.mark.parametrize("seed", [0, 1])
def test_a_killed_compute_ends_its_span_cancelled(seed):
    """The crashed server's co-processor is killed mid-charge: its
    ``margo.compute`` span ends there, tagged ``cancelled``, instead of
    staying open for the rest of the run."""
    result = run_scenario("crash_mid_execute", seed=seed)
    trace = result.sim.trace
    assert not [s for s in trace.spans.open.values() if s.name == "margo.compute"]
    assert list(trace.find("margo.compute", cancelled=True))


def test_gossip_suppression_forces_a_refutation():
    result = run_scenario("gossip_false_suspicion", seed=1)
    assert result.info["victim_incarnation"] >= 1


def test_replicated_recovery_avoids_restaging():
    result = run_scenario("replicated_crash_owner_mid_iteration", seed=1)
    assert result.ok, "\n".join(result.violations)
    assert result.info["staged_delta"] == 4, "client re-staged during recovery"
    assert result.info["recovered"] >= 1
    assert result.info["fallbacks"] == 0


def test_owner_and_buddy_crash_forces_fallback():
    result = run_scenario("replicated_owner_and_buddy_crash", seed=1)
    assert result.ok, "\n".join(result.violations)
    assert result.info["fallbacks"] == 1
    assert result.info["staged_delta"] == 8


def test_node_failure_recovers_from_off_node_replicas():
    result = run_scenario("replicated_node_failure", seed=1)
    assert result.ok, "\n".join(result.violations)
    assert result.info["recovered"] >= 2
    assert result.info["fallbacks"] == 0


def test_lost_deactivate_is_retried_not_reexecuted():
    """drop_client_links@3 drops one ``deactivate`` after iteration 1
    executed: the client must finish the iteration by retrying the
    idempotent deactivate, not by running activate/stage/execute again
    (a stateful backend would accumulate the iteration twice)."""
    from collections import Counter

    result = run_scenario("drop_client_links", seed=3)
    assert result.ok, "\n".join(result.violations)
    sim = result.sim
    executes = Counter(
        s.tags["iteration"] for s in sim.trace.spans
        if s.name == "colza.execute" and s.end is not None
    )
    assert executes == {1: 1, 2: 1, 3: 1, 4: 1}
    retried = [
        s for s in sim.trace.spans
        if s.name == "colza.deactivate" and s.tags["iteration"] == 1
    ]
    assert len(retried) == 2, "the scenario no longer loses a deactivate"
    fallbacks = sim.metrics.get("core.restage_fallbacks")
    assert fallbacks is None or fallbacks.value == 0


def test_slow_straggler_grows_under_the_band_policy():
    result = run_scenario("slow_straggler_autoscale", seed=1)
    assert result.ok, "\n".join(result.violations)
    assert "grow" in result.info["decisions"]
    assert result.info["servers"] > 2


def test_join_target_crash_bites_the_controller():
    result = run_scenario("autoscale_join_target_crash", seed=1)
    assert result.ok, "\n".join(result.violations)
    assert result.info["resize_failures"] >= 1
    assert result.info["quarantined"], "the crash site was never quarantined"
    assert result.info["servers"] > 2, "the grow never recovered elsewhere"


def test_telemetry_blackout_degrades_then_recovers():
    result = run_scenario("autoscale_telemetry_blackout", seed=1)
    assert result.ok, "\n".join(result.violations)
    kinds = result.info["kinds"]
    assert "degraded" in kinds and "recovered" in kinds
    assert result.info["degraded_steps"] >= 1


def test_tenant_burst_respects_resize_budgets():
    result = run_scenario("autoscale_tenant_burst", seed=1)
    assert result.ok, "\n".join(result.violations)
    assert result.info["alpha_charges"] <= 1, "alpha charged past its budget"
    assert result.info["beta_charges"] >= 1, "beta starved by alpha's burst"


# ---------------------------------------------------------------------------
# the canaries
def test_broken_replication_is_caught(monkeypatch):
    """Disable buddy placement entirely: with no replicas in the system
    an owner crash has nothing to recover from, so the zero-restage
    scenario must flag violations instead of passing vacuously."""
    import repro.core.replication as replication

    monkeypatch.setattr(replication, "replica_buddies", lambda *a, **k: [])
    result = run_scenario("replicated_crash_owner_mid_iteration", seed=1)
    assert not result.ok, "broken replication went unnoticed by the fleet"


def test_broken_abort_on_death_is_caught(monkeypatch):
    """Disable the provider's lost-member abort: the collective execute
    now blocks forever on the dead peer, and crash_mid_execute (which
    deliberately arms no data-plane timeouts) must fail instead of
    passing vacuously."""
    from repro.core.provider import ColzaProvider

    monkeypatch.setattr(
        ColzaProvider, "_on_membership_change", lambda self, event, member: None
    )
    with pytest.raises(TimeoutError):
        run_scenario("crash_mid_execute", seed=1)


def test_broken_teardown_abort_is_caught(monkeypatch):
    """End activations without aborting their executions: a survivor
    whose keep-data teardown lands before it sees the death keeps its
    co-processor waiting on the dead peer, and the execute-quiescence
    invariant must flag it."""
    from repro.core.provider import ColzaProvider

    monkeypatch.setattr(
        ColzaProvider, "end_activation",
        lambda self, key, reason: self._active.pop(key, None) is not None,
    )
    result = run_scenario("crash_mid_execute", seed=1)
    assert not result.ok, "a leaked execute went unnoticed by the fleet"
    assert any("outlived its activation" in v for v in result.violations)


def test_crash_that_spares_its_process_is_caught(monkeypatch):
    """Crash without killing the crashed process's tasks: the victim's
    execute handler and co-processor outlive the crash, and the
    execute-quiescence invariant must flag them."""
    from repro.sim import Simulation

    monkeypatch.setattr(Simulation, "kill_scope", lambda self, scope: None)
    result = run_scenario("crash_mid_execute", seed=1)
    assert not result.ok, "a crash that left its process running went unnoticed"
    assert any("outlived the crash of" in v for v in result.violations)


def test_a_broadcast_that_leaves_its_calls_running_is_caught(monkeypatch):
    """Races that own no tasks: the execute broadcast fails fast on the
    crashed member but its other calls run on, and the fan-out check of
    execute quiescence must flag the one still waiting on the victim."""
    from repro.sim import Simulation

    race = Simulation.any_of
    monkeypatch.setattr(
        Simulation, "any_of",
        lambda self, children, deadline=None, cancel=(): race(self, children, deadline),
    )
    result = run_scenario("crash_mid_execute", seed=1)
    assert not result.ok, "a broadcast's leftover call went unnoticed"
    assert any("client call colza-execute@" in v for v in result.violations)


def test_a_crash_mid_join_ends_the_join(monkeypatch):
    """The controller's join target crashes while its ``start()`` is
    still joining the group: the start is a task of the crashed process,
    so it ends at the crash instead of running on against the group."""
    from repro.core.daemon import ColzaDaemon

    start, crash = ColzaDaemon.start, ColzaDaemon.crash
    ended, crashed = {}, {}

    def timed_start(self, init_delay=0.0):
        try:
            return (yield from start(self, init_delay))
        finally:
            ended[self.name] = self.sim.now

    def timed_crash(self):
        crashed.setdefault(self.name, self.sim.now)
        crash(self)

    monkeypatch.setattr(ColzaDaemon, "start", timed_start)
    monkeypatch.setattr(ColzaDaemon, "crash", timed_crash)
    result = run_scenario("autoscale_join_target_crash", seed=1)
    assert result.ok, result.violations
    mid_join = [name for name in crashed if name not in ended or ended[name] >= crashed[name]]
    assert mid_join, "the scenario no longer crashes a daemon mid-join"
    assert all(ended.get(name) == crashed[name] for name in mid_join), (ended, crashed)
