"""Multi-tenant staging fabric tests (DESIGN §13).

Covers the tenancy layer bottom-up: the pure namespacing helpers, the
provider-side registry (admission, quota accounting, backpressure),
the fair-share resource mode, and end-to-end fabrics where several
tenants share one provider group — namespaced pipelines, quota stalls
resolved by a neighbor iteration's deactivate, per-tenant teardown,
elastic-join roster adoption, and the tenant-isolation monitor canary.
"""

import pytest

from repro.chaos.invariants import InvariantMonitor
import repro.core.pipelines  # noqa: F401  (registers the pipeline libraries)
from repro.core import Deployment, TenancyConfig, TenantQuota
from repro.core.tenancy import (
    DEFAULT_TENANT,
    TenantRegistry,
    qualify,
    tenant_of,
)
from repro.mercury import RpcError
from repro.na import VirtualPayload
from repro.sim import Resource, Simulation
from repro.ssg import SwimConfig
from repro.testing import drive, run_until

FAST_SWIM = SwimConfig(period=0.2, suspect_timeout=1.5)
STATS = "libcolza-stats.so"
BLOCK = VirtualPayload((1024,), "float64")  # 8 KiB


# ---------------------------------------------------------------------------
# namespacing (pure functions)
def test_qualify_roundtrip():
    assert qualify("alpha", "pipe") == "alpha#pipe"
    assert tenant_of("alpha#pipe") == "alpha"
    # The default tenant is the unqualified legacy namespace.
    assert qualify(DEFAULT_TENANT, "pipe") == "pipe"
    assert tenant_of("pipe") == DEFAULT_TENANT


def test_qualify_rejects_separator_in_names():
    with pytest.raises(ValueError):
        qualify("alpha", "bad#name")
    with pytest.raises(ValueError):
        qualify("bad#tenant", "pipe")
    with pytest.raises(ValueError):
        qualify("", "pipe")


def test_tenant_names_never_collide_across_tenants():
    seen = set()
    for tenant in ("alpha", "beta", DEFAULT_TENANT):
        for name in ("pipe", "render"):
            wire = qualify(tenant, name)
            assert wire not in seen
            seen.add(wire)
            assert tenant_of(wire) == tenant


# ---------------------------------------------------------------------------
# registry: admission + accounting
def test_registry_admission_cap_and_detach():
    sim = Simulation(seed=1)
    registry = TenantRegistry(sim, TenancyConfig(max_tenants=2))
    assert registry.admit("alpha") == (True, "attached")
    assert registry.admit("alpha") == (True, "already-attached")
    assert registry.admit("beta")[0]
    ok, reason = registry.admit("gamma")
    assert not ok and "max-tenants" in reason
    # The default tenant is infrastructure: always admitted, no slot.
    assert registry.admit(DEFAULT_TENANT)[0]
    assert not registry.admit("gamma")[0]
    # Detaching frees the slot.
    assert registry.detach("beta")
    assert registry.admit("gamma")[0]
    assert registry.tenants() == ["alpha", "default", "gamma"]


def test_registry_charge_is_idempotent_per_block_and_release_exact():
    sim = Simulation(seed=1)
    registry = TenantRegistry(sim, TenancyConfig())
    registry.charge("alpha", "alpha#pipe", 1, 0, 100)
    registry.charge("alpha", "alpha#pipe", 1, 1, 50)
    assert registry.usage("alpha") == (2, 150)
    # Re-staging a block REPLACES its charge, never double-counts.
    registry.charge("alpha", "alpha#pipe", 1, 0, 70)
    assert registry.usage("alpha") == (2, 120)
    registry.uncharge("alpha", "alpha#pipe", 1, 1)
    assert registry.usage("alpha") == (1, 70)
    registry.charge("alpha", "alpha#pipe", 2, 0, 30)
    registry.release("alpha#pipe", 1)
    assert registry.usage("alpha") == (1, 30)
    registry.release_pipeline("alpha#pipe")
    assert registry.usage("alpha") == (0, 0)


def test_reserve_backpressure_waits_for_release():
    sim = Simulation(seed=2)
    registry = TenantRegistry(
        sim,
        TenancyConfig(quotas={"alpha": TenantQuota(max_blocks=2)}, quota_wait=30.0),
    )
    registry.charge("alpha", "alpha#pipe", 1, 0, 10)
    registry.charge("alpha", "alpha#pipe", 1, 1, 10)
    done = []

    def stage_next():
        yield from registry.reserve(
            "alpha", "alpha#pipe", 2, 0, 10, still_valid=lambda: True
        )
        done.append(sim.now)

    def deactivate_later():
        yield sim.timeout(3.0)
        registry.release("alpha#pipe", 1)

    sim.spawn(stage_next(), name="stage-next")
    sim.spawn(deactivate_later(), name="deactivate-later")
    sim.run()
    assert done == [3.0]
    assert registry.usage("alpha") == (1, 10)
    scope = sim.metrics.scope("tenant.alpha")
    assert scope.counter("quota_stalls").value == 1
    assert scope.counter("quota_stall_seconds").value == pytest.approx(3.0)


def test_reserve_patience_exhaustion_raises():
    sim = Simulation(seed=3)
    registry = TenantRegistry(
        sim,
        TenancyConfig(quotas={"alpha": TenantQuota(max_blocks=1)}, quota_wait=0.5),
    )
    registry.charge("alpha", "alpha#pipe", 1, 0, 10)
    errors = []

    def stage_next():
        try:
            yield from registry.reserve(
                "alpha", "alpha#pipe", 2, 0, 10, still_valid=lambda: True
            )
        except RuntimeError as err:
            errors.append(str(err))

    sim.spawn(stage_next(), name="stage-next")
    sim.run()
    assert errors and "over quota" in errors[0]
    assert sim.now == pytest.approx(0.5)


def test_reserve_aborts_when_iteration_deactivated_under_it():
    sim = Simulation(seed=4)
    registry = TenantRegistry(
        sim,
        TenancyConfig(quotas={"alpha": TenantQuota(max_bytes=20)}, quota_wait=30.0),
    )
    registry.charge("alpha", "alpha#pipe", 1, 0, 10)
    registry.charge("alpha", "alpha#pipe", 1, 1, 10)
    alive = [True]
    errors = []

    def stage_next():
        try:
            yield from registry.reserve(
                "alpha", "alpha#pipe", 2, 0, 15, still_valid=lambda: alive[0]
            )
        except RuntimeError as err:
            errors.append(str(err))

    def kill_epoch():
        yield sim.timeout(1.0)
        alive[0] = False
        # Free SOME room — not enough to fit the waiter. The wake-up
        # must notice its own epoch died instead of going back to
        # sleep (or charging into a dead iteration).
        registry.uncharge("alpha", "alpha#pipe", 1, 1)

    sim.spawn(stage_next(), name="stage-next")
    sim.spawn(kill_epoch(), name="kill-epoch")
    sim.run()
    assert errors and "raced deactivate" in errors[0]


# ---------------------------------------------------------------------------
# fair-share resource mode
def test_fair_share_round_robins_across_groups():
    sim = Simulation(seed=5)
    res = Resource(sim, capacity=1)
    res.enable_fair_share()
    order = []

    def worker(group, tag):
        yield from res.use(1.0, group=group)
        order.append(tag)

    # Submission order is 3x alpha THEN 3x beta: FIFO would drain all
    # of alpha first; fair-share must alternate once beta shows up.
    for i in range(3):
        sim.spawn(worker("alpha", f"a{i}"), name=f"w-a{i}")
    for i in range(3):
        sim.spawn(worker("beta", f"b{i}"), name=f"w-b{i}")
    sim.run()
    assert order[0] == "a0"  # granted immediately, before beta arrived
    interleaved = order[1:5]
    assert set(interleaved[0::2]) <= {"b0", "b1", "b2"} or set(
        interleaved[0::2]
    ) <= {"a1", "a2"}
    # Strict alternation after the first grant: never two consecutive
    # grants to the same group while the other still waits.
    groups = [tag[0] for tag in order]
    for i in range(1, 5):
        assert groups[i] != groups[i + 1] or groups[i] == groups[5], (
            f"consecutive grants to group {groups[i]!r} in {order}"
        )


def test_fair_share_alternates_strictly():
    sim = Simulation(seed=6)
    res = Resource(sim, capacity=1)
    res.enable_fair_share()
    order = []

    def worker(group, tag):
        yield from res.use(1.0, group=group)
        order.append(tag)

    def submit():
        yield sim.timeout(0)
        for i in range(3):
            sim.spawn(worker("a", f"a{i}"), name=f"w-a{i}")
            sim.spawn(worker("b", f"b{i}"), name=f"w-b{i}")

    sim.spawn(submit(), name="submit")
    sim.run()
    # Both groups enqueue together: perfect a/b alternation.
    assert [t[0] for t in order] == ["a", "b", "a", "b", "a", "b"]


def test_enable_fair_share_refuses_with_pending_waiters():
    sim = Simulation(seed=7)
    res = Resource(sim, capacity=1)

    def holder():
        yield from res.use(5.0)

    def waiter():
        yield from res.use(1.0)

    sim.spawn(holder(), name="holder")
    sim.spawn(waiter(), name="waiter")
    sim.run(until=1.0)
    with pytest.raises(RuntimeError):
        res.enable_fair_share()


# ---------------------------------------------------------------------------
# end-to-end fabrics
def make_fabric(sim, nservers=2, tenancy=None, tenants=("alpha", "beta"),
                config=None):
    deployment = Deployment(
        sim, swim_config=FAST_SWIM,
        tenancy=tenancy if tenancy is not None else TenancyConfig(),
    )
    drive(sim, deployment.start_servers(nservers), max_time=300)
    run_until(sim, deployment.converged, max_time=300)
    sessions = {}
    for i, tenant in enumerate(tenants):
        margo, client = deployment.make_client(node_index=40 + i, tenant=tenant)
        drive(sim, client.connect())
        drive(sim, client.attach())
        drive(
            sim,
            deployment.deploy_pipeline(
                margo, "pipe", STATS, dict(config or {}), tenant=tenant
            ),
        )
        sessions[tenant] = (margo, client, client.distributed_pipeline_handle("pipe"))
    return deployment, sessions


def run_iteration(sim, handle, iteration, blocks=2):
    return drive(
        sim,
        handle.run_resilient_iteration(
            iteration, [(b, BLOCK) for b in range(blocks)]
        ),
        max_time=600,
    )


def test_two_tenants_share_one_group_with_namespaced_pipelines():
    sim = Simulation(seed=31)
    deployment, sessions = make_fabric(sim)
    for tenant in ("alpha", "beta"):
        view = run_iteration(sim, sessions[tenant][2], 1)
        assert len(view) == 2
    # Both tenants deployed a pipeline named "pipe"; on the wire (and
    # in every provider table) they are distinct namespaced entries.
    for daemon in deployment.live_daemons():
        assert set(daemon.provider.pipelines) == {"alpha#pipe", "beta#pipe"}
        assert daemon.provider.tenants.is_admitted("alpha")
        assert daemon.provider.tenants.is_admitted("beta")


def test_attach_rejected_over_cap_and_slot_freed_by_detach():
    sim = Simulation(seed=32)
    deployment, sessions = make_fabric(
        sim, tenancy=TenancyConfig(max_tenants=1), tenants=("alpha",)
    )
    margo_b, client_b = deployment.make_client(node_index=41, tenant="beta")
    drive(sim, client_b.connect())
    with pytest.raises(RpcError, match="rejected"):
        drive(sim, client_b.attach())
    # The failed attach must not leave partial admissions behind.
    for daemon in deployment.live_daemons():
        assert not daemon.provider.tenants.is_admitted("beta")
    drive(sim, sessions["alpha"][1].detach())
    drive(sim, client_b.attach())
    for daemon in deployment.live_daemons():
        assert daemon.provider.tenants.is_admitted("beta")


def test_detach_tears_down_own_namespace_and_leaves_neighbor_running():
    sim = Simulation(seed=33)
    deployment, sessions = make_fabric(sim)
    run_iteration(sim, sessions["alpha"][2], 1)
    run_iteration(sim, sessions["beta"][2], 1)
    drive(sim, sessions["alpha"][1].detach())
    for daemon in deployment.live_daemons():
        assert set(daemon.provider.pipelines) == {"beta#pipe"}
        assert not daemon.provider.tenants.is_admitted("alpha")
        assert daemon.provider.tenants.usage("alpha") == (0, 0)
    # The neighbor keeps iterating as if nothing happened.
    view = run_iteration(sim, sessions["beta"][2], 2)
    assert len(view) == 2


def test_quota_backpressure_resolved_by_neighbor_iterations_deactivate():
    sim = Simulation(seed=34)
    deployment, sessions = make_fabric(
        sim, nservers=1,
        tenancy=TenancyConfig(
            quotas={"alpha": TenantQuota(max_blocks=2)}, quota_wait=30.0
        ),
        tenants=("alpha",),
    )
    margo, client, handle = sessions["alpha"]
    # The quota is per TENANT, spanning its pipelines: a second
    # pipeline's stage must stall while the first holds all the room.
    drive(sim, deployment.deploy_pipeline(margo, "pipe2", STATS, {}, tenant="alpha"))
    handle2 = client.distributed_pipeline_handle("pipe2")
    handle2.stage_timeout = None  # the stall is the point, not a fault

    def fill_iteration_one():
        yield from handle.activate(1)
        for b in range(2):
            yield from handle.stage(1, b, BLOCK)

    drive(sim, fill_iteration_one(), max_time=300)

    done = []

    def over_quota_stage():
        yield from handle2.activate(1)
        yield from handle2.stage(1, 0, BLOCK)
        done.append(sim.now)

    sim.spawn(over_quota_stage(), name="over-quota-stage")
    sim.run(until=sim.now + 2.0)
    assert not done, "stage should be backpressured while pipe holds the quota"
    assert sim.metrics.scope("tenant.alpha").counter("quota_stalls").value == 1

    def finish_iteration_one():
        yield from handle.execute(1)
        yield from handle.deactivate(1)

    drive(sim, finish_iteration_one(), max_time=300)
    run_until(sim, lambda: bool(done), max_time=60)
    daemon = deployment.live_daemons()[0]
    assert daemon.provider.tenants.usage("alpha") == (1, BLOCK.nbytes)
    assert (
        sim.metrics.scope("tenant.alpha").counter("quota_stall_seconds").value > 0
    )

    def finish_iteration_two():
        yield from handle2.execute(1)
        yield from handle2.deactivate(1)

    drive(sim, finish_iteration_two(), max_time=300)
    assert daemon.provider.tenants.usage("alpha") == (0, 0)


def test_per_tenant_deactivate_leaves_neighbor_epoch_intact():
    sim = Simulation(seed=35)
    deployment, sessions = make_fabric(sim)

    def open_iteration(handle):
        yield from handle.activate(1)
        for b in range(2):
            yield from handle.stage(1, b, BLOCK)

    drive(sim, open_iteration(sessions["alpha"][2]), max_time=300)
    drive(sim, open_iteration(sessions["beta"][2]), max_time=300)
    drive(sim, sessions["alpha"][2].deactivate(1), max_time=300)
    for daemon in deployment.live_daemons():
        active = set(daemon.provider._active)
        assert ("alpha#pipe", 1) not in active
        assert ("beta#pipe", 1) in active
        assert daemon.provider.tenants.usage("alpha") == (0, 0)

    def finish(handle):
        yield from handle.execute(1)
        yield from handle.deactivate(1)

    drive(sim, finish(sessions["beta"][2]), max_time=300)


def test_fair_share_grants_tracked_per_tenant_under_noisy_neighbor():
    sim = Simulation(seed=36)
    deployment, sessions = make_fabric(
        sim, nservers=1, config={"bytes_per_second": 4e4}
    )
    daemon = deployment.live_daemons()[0]
    assert daemon.margo.xstream.core.fair_share

    results = {}

    def tenant_body(tenant, iterations, blocks):
        handle = sessions[tenant][2]
        sizes = []
        for it in range(1, iterations + 1):
            view = yield from handle.run_resilient_iteration(
                it, [(b, BLOCK) for b in range(blocks)]
            )
            sizes.append(len(view))
        results[tenant] = sizes

    tasks = [
        sim.spawn(tenant_body("alpha", 2, 4), name="workload-alpha"),
        sim.spawn(tenant_body("beta", 2, 2), name="workload-beta"),
    ]
    run_until(sim, lambda: all(t.finished for t in tasks), max_time=900)
    assert results["alpha"] == [1, 1] and results["beta"] == [1, 1]
    grants = daemon.margo.xstream.tenant_grants
    assert grants.get("alpha", 0) > 0 and grants.get("beta", 0) > 0
    # The noisy neighbor executed more blocks, and fair-share kept the
    # accounting per tenant rather than lumping the pool together.
    assert grants["alpha"] > grants["beta"]
    compute = daemon.margo.xstream.tenant_compute
    assert compute["alpha"] > compute["beta"] > 0.0


def test_cross_tenant_destroy_refused_and_own_destroy_allowed():
    from repro.core.admin import ColzaAdmin

    sim = Simulation(seed=37)
    deployment, sessions = make_fabric(sim)
    run_iteration(sim, sessions["alpha"][2], 1)
    margo_b = sessions["beta"][0]
    server = deployment.addresses()[0]
    # A tenant-bound admin cannot even name a foreign pipeline through
    # the library (names are qualified), so the attack is a crafted raw
    # RPC naming alpha's wire-level pipeline with beta's identity.
    with pytest.raises(RpcError, match="refused"):
        drive(
            sim,
            margo_b.provider_call(
                server, "colza-admin", "destroy_pipeline",
                {"name": "alpha#pipe", "tenant": "beta"},
            ),
            max_time=60,
        )
    for daemon in deployment.live_daemons():
        assert "alpha#pipe" in daemon.provider.pipelines
    # The owning tenant's admin destroy goes through.
    admin_a = ColzaAdmin(sessions["alpha"][0], tenant="alpha")
    drive(sim, admin_a.destroy_pipeline(server, "pipe"), max_time=60)
    daemon = next(d for d in deployment.live_daemons() if d.address == server)
    assert "alpha#pipe" not in daemon.provider.pipelines
    assert "beta#pipe" in daemon.provider.pipelines


def test_elastic_join_adopts_tenant_roster():
    sim = Simulation(seed=38)
    deployment, sessions = make_fabric(sim)
    run_iteration(sim, sessions["alpha"][2], 1)
    new_daemon = drive(sim, deployment.add_server(node_index=9), max_time=300)
    run_until(sim, deployment.converged, max_time=120)
    # The SSG on_joined hook pulled the roster from a founding peer.
    assert new_daemon.provider.tenants.is_admitted("alpha")
    assert new_daemon.provider.tenants.is_admitted("beta")
    # And the fabric is fully usable at the new size.
    from repro.core.admin import ColzaAdmin

    admin = ColzaAdmin(sessions["alpha"][0], tenant="alpha")
    drive(sim, admin.create_pipeline(new_daemon.address, "pipe", STATS, {}))
    view = run_iteration(sim, sessions["alpha"][2], 2)
    assert len(view) == 3


def test_per_tenant_metric_scopes_count_their_own_work():
    sim = Simulation(seed=39)
    deployment, sessions = make_fabric(sim)
    run_iteration(sim, sessions["alpha"][2], 1, blocks=4)
    run_iteration(sim, sessions["alpha"][2], 2, blocks=4)
    run_iteration(sim, sessions["beta"][2], 1, blocks=2)
    alpha = sim.metrics.scope("tenant.alpha")
    beta = sim.metrics.scope("tenant.beta")
    assert alpha.counter("iterations_completed").value == 2
    assert beta.counter("iterations_completed").value == 1
    assert alpha.counter("blocks_staged").value == 8
    assert beta.counter("blocks_staged").value == 2
    # Execute broadcasts hit both servers, once per iteration.
    assert alpha.counter("executes").value == 4
    assert beta.counter("executes").value == 2
    assert alpha.counter("iteration_retries").value == 0
    assert beta.counter("iteration_retries").value == 0


def test_tenant_isolation_monitor_flags_quota_and_containment_breaches():
    sim = Simulation(seed=40)
    deployment, sessions = make_fabric(
        sim, tenancy=TenancyConfig(quotas={"alpha": TenantQuota(max_blocks=1)})
    )
    monitor = InvariantMonitor(sim, deployment)
    daemon = deployment.live_daemons()[0]
    monitor.tenancy.check_all()
    assert monitor.violations == []
    # Force a quota breach straight into the books (the provider's
    # reserve path would refuse this, which is exactly the point: the
    # monitor must catch the bug if it ever stops refusing).
    daemon.provider.tenants.charge("alpha", "alpha#pipe", 1, 0, 10)
    daemon.provider.tenants.charge("alpha", "alpha#pipe", 1, 1, 10)
    monitor.tenancy.check_quotas()
    assert any("quota" in v for v in monitor.violations)
    # And a containment breach: state under a tenant nobody admitted.
    monitor.violations.clear()
    daemon.provider.pipelines["ghost#pipe"] = None
    monitor.tenancy.check_containment()
    assert any("unadmitted tenant 'ghost'" in v for v in monitor.violations)
    del daemon.provider.pipelines["ghost#pipe"]


def test_default_tenant_is_fully_backward_compatible():
    sim = Simulation(seed=41)
    deployment = Deployment(sim, swim_config=FAST_SWIM)  # no tenancy at all
    drive(sim, deployment.start_servers(2), max_time=300)
    run_until(sim, deployment.converged, max_time=300)
    margo, client = deployment.make_client(node_index=40)
    assert client.tenant == DEFAULT_TENANT
    drive(sim, client.connect())
    drive(sim, deployment.deploy_pipeline(margo, "pipe", STATS, {}))
    handle = client.distributed_pipeline_handle("pipe")
    view = run_iteration(sim, handle, 1)
    assert len(view) == 2
    for daemon in deployment.live_daemons():
        # Unqualified wire names, unconfigured registry, FIFO xstream:
        # the legacy deployment is byte-for-byte the old one.
        assert set(daemon.provider.pipelines) == {"pipe"}
        assert not daemon.provider.tenants.configured
        assert not daemon.margo.xstream.core.fair_share
        assert daemon.provider.tenants.tenants() == [DEFAULT_TENANT]
        assert daemon.provider.tenants.usage(DEFAULT_TENANT) == (0, 0)
