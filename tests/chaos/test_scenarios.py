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

import pytest

from repro.chaos import run_scenario, scenario_names

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


def test_lost_deactivate_is_retried_not_reexecuted(monkeypatch):
    """drop_client_links@3 drops one ``deactivate`` after iteration 1
    executed: the client must finish the iteration by retrying the
    idempotent deactivate, not by running activate/stage/execute again
    (a stateful backend would accumulate the iteration twice)."""
    from collections import Counter

    from repro.chaos import scenarios

    built = []
    real = scenarios.build_stack

    def capture(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(scenarios, "build_stack", capture)
    result = run_scenario("drop_client_links", seed=3)
    assert result.ok, "\n".join(result.violations)
    sim = built[0].sim
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
