"""Replication & crash recovery (DESIGN §11).

Placement and store units, the recovery acceptance path (a crashed
provider's blocks come back from replicas with zero client re-stages
and a bit-equal image), the fallback when replicas are insufficient,
deactivate idempotency, and the retry-backoff satellites.
"""

import numpy as np
import pytest

from repro.core import ColzaAdmin, Deployment
from repro.core.backend import Backend, StagedBlock
from repro.core.client import ColzaClient
from repro.core.pipelines import IsoSurfaceScript
from repro.core.replication import (
    ReplicaStore,
    block_owner,
    node_of,
    replica_buddies,
)
from repro.mercury import RpcError
from repro.na.address import Address
from repro.sim import Simulation
from repro.ssg import SwimConfig
from repro.testing import drive, run_until
from repro.vtk import ImageData

FAST_SWIM = SwimConfig(period=0.2, suspect_timeout=1.0)


def sphere_block(n=12, extent=1.5):
    spacing = 2 * extent / (n - 1)
    img = ImageData(dims=(n, n, n), origin=(-extent,) * 3, spacing=(spacing,) * 3)
    coords = img.point_coords()
    img.set_field("dist", np.linalg.norm(coords, axis=1).reshape(n, n, n))
    return img


def make_stack(sim, nservers, replication_factor=2):
    deployment = Deployment(sim, swim_config=FAST_SWIM)
    drive(sim, deployment.start_servers(nservers), max_time=300)
    run_until(sim, deployment.converged, max_time=300)
    client_margo, client = deployment.make_client(node_index=40)
    drive(sim, client.connect())
    script = IsoSurfaceScript(field="dist", isovalues=[1.0])
    drive(
        sim,
        deployment.deploy_pipeline(
            client_margo, "render", "libcolza-iso.so",
            {"script": script, "width": 32, "height": 32,
             "replication_factor": replication_factor},
        ),
    )
    return deployment, client_margo, client, client.distributed_pipeline_handle("render")


# ---------------------------------------------------------------------------
# placement (pure functions)
def _view(n, procs_per_node=1):
    return [
        Address.make(f"nid{i // procs_per_node:05d}", f"s-{i}") for i in range(n)
    ]


def test_block_owner_deterministic_and_order_independent():
    view = _view(5)
    for b in range(16):
        owner = block_owner("pipe", 3, b, view)
        assert owner in view
        assert owner == block_owner("pipe", 3, b, list(reversed(view)))


def test_owner_spread_depends_on_key():
    view = _view(5)
    owners = {block_owner("pipe", 1, b, view) for b in range(64)}
    assert len(owners) > 1  # rendezvous actually spreads
    # Different pipeline/iteration => (generally) different placement.
    a = [block_owner("p1", 1, b, view) for b in range(16)]
    b = [block_owner("p2", 1, i, view) for i in range(16)]
    assert a != b


def test_replica_buddies_exclude_owner_and_honor_factor():
    view = _view(5)
    for b in range(16):
        owner = block_owner("pipe", 1, b, view)
        buddies = replica_buddies("pipe", 1, b, owner, view, 3)
        assert len(buddies) == 2
        assert owner not in buddies
        assert len(set(buddies)) == 2
        # K=1 disables replication entirely.
        assert replica_buddies("pipe", 1, b, owner, view, 1) == []


def test_replica_buddies_prefer_other_failure_domains():
    view = _view(6, procs_per_node=2)  # 3 nodes x 2 procs
    for b in range(16):
        for owner in view:
            first = replica_buddies("pipe", 1, b, owner, view, 2)[0]
            assert node_of(first) != node_of(owner)


def test_replica_buddies_single_node_degrades_gracefully():
    view = _view(3, procs_per_node=3)  # everyone on one node
    owner = view[0]
    buddies = replica_buddies("pipe", 1, 0, owner, view, 2)
    assert len(buddies) == 1 and buddies[0] != owner


# ---------------------------------------------------------------------------
# replica store + idempotent stage
def _blk(block_id, tag="x"):
    return StagedBlock(block_id=block_id, metadata={"tag": tag}, payload=None)


def test_replica_store_roundtrip():
    store = ReplicaStore()
    store.put("pipe", 1, _blk(0))
    store.put("pipe", 1, _blk(2))
    store.put("pipe", 2, _blk(0))
    assert store.block_ids("pipe", 1) == [0, 2]
    assert store.get("pipe", 1, 2).block_id == 2
    assert store.get("pipe", 1, 7) is None
    store.put("pipe", 1, _blk(0, tag="newer"))  # idempotent refresh
    assert store.block_ids("pipe", 1) == [0, 2]
    assert store.get("pipe", 1, 0).metadata["tag"] == "newer"
    assert store.pop("pipe", 1, 0).block_id == 0
    assert store.pop("pipe", 1, 0) is None
    store.drop_iteration("pipe", 2)
    assert store.block_ids("pipe", 2) == []
    store.put("pipe", 3, _blk(1))
    store.put("other", 3, _blk(1))
    store.drop_pipeline("pipe")
    assert store.block_ids("pipe", 3) == [] and store.block_ids("other", 3) == [1]


def test_backend_stage_is_idempotent_per_block_id():
    backend = Backend(margo=None, name="b")

    def stage_all():
        yield from backend.stage(1, _blk(0, tag="old"))
        yield from backend.stage(1, _blk(1))
        yield from backend.stage(1, _blk(0, tag="new"))

    for _ in stage_all():  # the base stage never suspends
        pass
    assert [b.block_id for b in backend.blocks(1)] == [0, 1]
    assert backend.blocks(1)[0].metadata["tag"] == "new"


# ---------------------------------------------------------------------------
# the acceptance path: crash mid-iteration, recover with zero re-stages
def test_recovery_without_restaging_matches_healthy_image():
    """With K=2 and one provider crashed mid-iteration, the retry
    completes with ZERO client stage RPCs (blocks_staged delta stays at
    the original block count) and the image equals the healthy run."""
    sim = Simulation(seed=31)
    deployment, _, client, handle = make_stack(sim, 3, replication_factor=2)
    blocks = [(i, sphere_block()) for i in range(4)]
    drive(sim, handle.run_resilient_iteration(1, blocks), max_time=3000)
    rank0 = min(deployment.live_daemons(), key=lambda d: d.address)
    healthy = rank0.provider.pipelines["render"].last_results["image"].copy()

    core = sim.metrics.scope("core")
    staged_before = core.counter("blocks_staged").value
    victim = deployment.live_daemons()[-1]

    # Crash the instant the last stage of iteration 2 completes: the
    # failure lands between stage and execute, deterministically, so
    # the retry must rebuild the full distribution.
    def crash_after_last_stage(span):
        if (
            span.name == "colza.stage"
            and span.tags.get("iteration") == 2
            and span.tags.get("block") == len(blocks) - 1
        ):
            sim.trace.on_end.remove(crash_after_last_stage)
            victim.crash()

    sim.trace.on_end.append(crash_after_last_stage)
    view = drive(
        sim, handle.run_resilient_iteration(2, blocks, max_attempts=8),
        max_time=3000,
    )
    assert len(view) == 2 and victim.address not in view
    assert core.counter("blocks_staged").value - staged_before == len(blocks)
    assert core.counter("blocks_recovered").value >= 1
    assert core.counter("restage_fallbacks").value == 0

    rank0 = min(deployment.live_daemons(), key=lambda d: d.address)
    recovered = rank0.provider.pipelines["render"].last_results["image"]
    assert np.allclose(healthy.rgba, recovered.rgba, atol=1e-6)

    # Satellite: deactivate after crash recovery is an explicit no-op.
    server = rank0.address
    again = drive(sim, client.margo.provider_call(
        server, "colza", "deactivate", {"pipeline": "render", "iteration": 2}), max_time=300)
    assert again == "not-active"


def test_owner_and_buddy_crash_falls_back_to_full_restage():
    """f = K: the lost block has no surviving copy — recovery reports
    it missing and the client re-stages everything exactly once."""
    sim = Simulation(seed=32)
    deployment, _, client, handle = make_stack(sim, 4, replication_factor=2)
    blocks = [(i, sphere_block()) for i in range(4)]
    drive(sim, handle.run_resilient_iteration(1, blocks), max_time=3000)

    core = sim.metrics.scope("core")
    staged_before = core.counter("blocks_staged").value
    view = sorted(d.address for d in deployment.live_daemons())
    owner = view[0]  # block_id_mod: block 0 lives on the first member
    buddy = replica_buddies("render", 2, 0, owner, view, 2)[0]
    victims = [d for d in deployment.live_daemons() if d.address in (owner, buddy)]
    assert len(victims) == 2

    def crash_after_last_stage(span):
        if (
            span.name == "colza.stage"
            and span.tags.get("iteration") == 2
            and span.tags.get("block") == len(blocks) - 1
        ):
            sim.trace.on_end.remove(crash_after_last_stage)
            for v in victims:
                v.crash()

    sim.trace.on_end.append(crash_after_last_stage)
    final = drive(
        sim, handle.run_resilient_iteration(2, blocks, max_attempts=8),
        max_time=3000,
    )
    assert len(final) == 2
    assert core.counter("restage_fallbacks").value == 1
    # 4 originals + 4 re-staged after the fallback.
    assert core.counter("blocks_staged").value - staged_before == 8
    # The iteration still produced a full image, not a partial one.
    rank0 = min(deployment.live_daemons(), key=lambda d: d.address)
    image = rank0.provider.pipelines["render"].last_results["image"]
    assert image.coverage() > 0.0


def test_replicate_counters_and_cleanup():
    """Healthy iterations with K=2 replicate every block once and drop
    all replicas at deactivate."""
    sim = Simulation(seed=33)
    deployment, _, client, handle = make_stack(sim, 3, replication_factor=2)
    core = sim.metrics.scope("core")
    blocks = [(i, sphere_block()) for i in range(4)]
    drive(sim, handle.run_resilient_iteration(1, blocks), max_time=3000)
    assert core.counter("blocks_replicated").value == len(blocks)
    assert core.counter("replica_bytes").value > 0
    assert core.counter("blocks_recovered").value == 0
    for daemon in deployment.live_daemons():
        assert daemon.provider.replicas.block_ids("render", 1) == []


# ---------------------------------------------------------------------------
# deactivate idempotency (satellite)
def test_deactivate_is_explicitly_idempotent():
    sim = Simulation(seed=34)
    deployment, _, client, handle = make_stack(sim, 2, replication_factor=1)
    blocks = [(0, sphere_block())]

    def body():
        yield from handle.activate(1)
        yield from handle.stage(1, 0, blocks[0][1])
        yield from handle.execute(1)
        return (yield from handle.deactivate(1))

    first = drive(sim, body(), max_time=3000)
    assert first == ["deactivated"] * 2
    server = deployment.live_daemons()[0].address

    def deactivate(pipeline, iteration):
        return drive(sim, client.margo.provider_call(
            server, "colza", "deactivate", {"pipeline": pipeline, "iteration": iteration}), max_time=300)

    # Double deactivate: distinct result, no error.
    assert deactivate("render", 1) == "not-active"
    # Never-activated iteration and unknown pipeline: same story.
    assert deactivate("render", 9) == "not-active"
    assert deactivate("no-such-pipeline", 1) == "not-active"


# ---------------------------------------------------------------------------
# retries-exhausted path (satellite)
def test_retries_exhausted_surfaces_cause_and_outcome():
    sim = Simulation(seed=35)
    deployment, _, client, handle = make_stack(sim, 2, replication_factor=1)
    blocks = [(i, sphere_block()) for i in range(2)]
    drive(sim, handle.run_resilient_iteration(1, blocks), max_time=3000)

    # Tighten the deadlines only for the doomed iteration, so each of
    # the two attempts fails fast instead of waiting forever.
    client.CONTROL_TIMEOUT = 0.5
    handle.CONTROL_TIMEOUT = 1.0
    handle.stage_timeout = 1.0
    handle.data_timeout = 2.0
    for daemon in deployment.live_daemons():
        daemon.crash()
    with pytest.raises(RpcError) as err:
        drive(
            sim, handle.run_resilient_iteration(2, blocks, max_attempts=2),
            max_time=3000,
        )
    assert "failed after 2 attempts" in str(err.value)
    # The last underlying cause is chained, not swallowed.
    assert err.value.__cause__ is not None
    assert isinstance(err.value.__cause__, RpcError)
    outcomes = [
        span.tags["outcome"]
        for span in sim.trace.find("colza.iteration", iteration=2)
    ]
    assert outcomes == ["retry", "exhausted"]


# ---------------------------------------------------------------------------
# backoff + connect-timeout satellites
def _bare_handle(seed, node_index=1, name=None):
    sim = Simulation(seed=seed)
    deployment = Deployment(sim)
    margo, client = deployment.make_client(node_index=node_index, name=name)
    return sim, deployment, client.distributed_pipeline_handle("pipe")


def test_backoff_deterministic_capped_and_desynchronized():
    _, deployment, h1 = _bare_handle(7, name="cli-a")
    seq1 = [h1._backoff(a, *h1.RETRY_BACKOFF) for a in range(8)]
    _, _, h1b = _bare_handle(7, name="cli-a")
    assert seq1 == [h1b._backoff(a, *h1b.RETRY_BACKOFF) for a in range(8)]

    # A second client on the same sim draws a different jitter stream.
    _, client2 = deployment.make_client(node_index=2, name="cli-b")
    h2 = client2.distributed_pipeline_handle("pipe")
    assert seq1 != [h2._backoff(a, *h2.RETRY_BACKOFF) for a in range(8)]

    base, cap = h1.RETRY_BACKOFF
    assert all(0.0 < v <= cap for v in seq1)
    # Early attempts stay under the cap with room for jitter; late
    # attempts saturate at <= cap instead of growing unboundedly.
    assert seq1[0] <= base
    assert max(seq1) <= cap


def test_connect_probe_uses_class_level_control_timeout():
    assert ColzaClient.CONTROL_TIMEOUT == 1.0
    sim = Simulation(seed=36)
    deployment, _, _, _ = make_stack(sim, 2, replication_factor=1)
    # Kill the group file's first candidate so connect must time out on
    # it before reaching the live one.
    first = deployment.daemons[0]
    first.crash()
    margo, client = deployment.make_client(node_index=41)
    client.CONTROL_TIMEOUT = 0.25
    t0 = sim.now
    view = drive(sim, client.connect(), max_time=300)
    elapsed = sim.now - t0
    assert len(view) >= 1
    assert 0.25 <= elapsed < 1.0  # the probe honored the tuned timeout


# ---------------------------------------------------------------------------
# multi-tenant placement (DESIGN §13): tenant-prefixed rendezvous keys
def test_tenant_placement_never_collides_and_ignores_other_tenants():
    from repro.core.tenancy import qualify

    view = _view(5)
    # Wire-level placement keys are disjoint across tenants even for
    # identical pipeline names, iterations and block ids.
    keys = set()
    for tenant in ("alpha", "beta", "default"):
        name = qualify(tenant, "pipe")
        for iteration in (1, 2):
            for block_id in range(8):
                key = f"{name}#{iteration}#{block_id}"
                assert key not in keys
                keys.add(key)
    # Owner assignment is a pure function of (key, view): evaluating
    # another tenant's placement between two calls cannot perturb it.
    before = {b: block_owner("alpha#pipe", 1, b, view) for b in range(16)}
    for b in range(16):
        block_owner("beta#pipe", 1, b, view)
        block_owner("pipe", 1, b, view)
    after = {b: block_owner("alpha#pipe", 1, b, view) for b in range(16)}
    assert before == after


def test_tenant_placement_stable_under_view_changes():
    """The HRW minimal-disruption property holds per tenant: removing
    one member only moves the blocks that member owned — every other
    tenant-qualified key keeps its owner (so one tenant's churn or a
    shared member's death never reshuffles a neighbor's placement)."""
    view = _view(6)
    removed = view[2]
    shrunk = [m for m in view if m != removed]
    for name in ("alpha#pipe", "beta#pipe", "beta#render", "pipe"):
        for iteration in (1, 2):
            for block_id in range(16):
                owner = block_owner(name, iteration, block_id, view)
                if owner == removed:
                    continue
                assert block_owner(name, iteration, block_id, shrunk) == owner
    # And buddies never cross tenants either: the buddy SET for a key
    # depends only on that key and the view.
    buddies = replica_buddies("alpha#pipe", 1, 0, view[0], view, 3)
    replica_buddies("beta#pipe", 1, 0, view[0], view, 3)
    assert replica_buddies("alpha#pipe", 1, 0, view[0], view, 3) == buddies


# ---------------------------------------------------------------------------
# elasticity hazard 2 (bench_e2e/README.md, "Known hazards")
@pytest.fixture(scope="module")
def crash_during_first_execute():
    """A base member crashes the instant the last block of an iteration is
    staged, so a server that joined elastically is inside its first execute
    (8 s of simulated library init) when the group loses the member. The
    README's recipe: every later execute used to time out on the survivors,
    through all retries. Bounded in simulated time, so a wedge fails fast
    instead of spinning SWIM rounds. Run once for the tests below."""
    sim = Simulation(seed=1)
    deployment = Deployment(sim)
    drive(sim, deployment.start_servers(4), max_time=300)
    run_until(sim, deployment.converged, max_time=300)
    client_margo, client = deployment.make_client(node_index=40)
    drive(sim, client.connect())
    config = {"script": IsoSurfaceScript(field="dist", isovalues=[1.0]), "width": 32, "height": 32,
              "replication_factor": 2}
    drive(sim, deployment.deploy_pipeline(client_margo, "render", "libcolza-iso.so", config))
    handle = client.distributed_pipeline_handle("render")
    handle.data_timeout = 30.0
    blocks = [(i, sphere_block()) for i in range(8)]
    drive(sim, handle.run_resilient_iteration(1, blocks), max_time=600)

    joined = drive(sim, deployment.add_server(8), max_time=300)
    drive(sim, ColzaAdmin(client_margo).create_pipeline(joined.address, "render", "libcolza-iso.so", config))
    run_until(sim, deployment.converged, max_time=300)
    victim = min(deployment.live_daemons(), key=lambda d: d.address)

    def crash_after_last_stage(span):
        tags = span.tags
        if span.name == "colza.stage" and tags.get("iteration") == 2 and tags.get("block") == len(blocks) - 1:
            sim.trace.on_end.remove(crash_after_last_stage)
            victim.crash()

    sim.trace.on_end.append(crash_after_last_stage)
    view = drive(sim, handle.run_resilient_iteration(2, blocks, max_attempts=8), max_time=120)
    return sim, view, victim, joined


def test_a_crash_during_a_joined_servers_first_execute_recovers(crash_during_first_execute):
    """The retry recovers from the replicas instead of wedging."""
    sim, view, victim, joined = crash_during_first_execute
    assert victim.address not in view and joined.address in view
    assert sim.metrics.scope("core").counter("restage_fallbacks").value == 0


def test_a_recovered_iteration_leaves_no_execute_behind(crash_during_first_execute):
    """After the retry succeeds, no survivor is still inside the aborted
    attempt: no ``render.coprocess`` task is live and no ``mona.*`` span
    is open."""
    sim = crash_during_first_execute[0]
    live = [t.name for t in sim.tasks if not t.done._fired and t.name.endswith(".coprocess")]
    open_spans = [span.name for span in sim.trace.spans.open.values()]
    assert (live, [name for name in open_spans if name.startswith("mona.")]) == ([], [])


def test_a_crashed_server_leaves_no_task_behind(crash_during_first_execute):
    """The crash ends the victim's process: no task of its scope is
    unfinished after the recovered iteration. (The client's wait on the
    victim, ``colza-execute@<victim>``, is the client's task.)"""
    sim, _, victim, _ = crash_during_first_execute
    assert [t.name for t in sim.tasks if t.scope == victim.name and not t.finished] == []
