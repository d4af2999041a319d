"""Tests for the future-work extensions: auto-resizing (2), stateful
pipelines with migration (3), and optimized MoNA collectives."""

import numpy as np
import pytest

from repro.core import ColzaAdmin, Deployment
from repro.core.autoscale import SloConfig, ThresholdBand
from repro.core.pipelines import FieldStats, StatisticsBackend
from repro.mona import BXOR, SUM
from repro.na import VirtualPayload
from repro.sim import Simulation
from repro.ssg import SwimConfig
from repro.testing import build_mona_world, drive, run_all, run_until
from repro.vtk import ImageData

FAST_SWIM = SwimConfig(period=0.2, suspect_timeout=1.0)


# ---------------------------------------------------------------------------
# ThresholdBand (pure decision logic): band(execute, servers, cooldown, slo)
BAND = ThresholdBand(high=10, low=2)


def test_policy_grows_above_band():
    decision = BAND(15.0, 4, 0, SloConfig())
    assert decision.action == "grow" and decision.amount == 1


def test_policy_shrinks_below_band():
    assert BAND(1.0, 4, 0, SloConfig()).action == "shrink"


def test_policy_holds_within_band():
    assert BAND(5.0, 4, 0, SloConfig()).action == "hold"


def test_policy_respects_limits():
    slo = SloConfig(max_servers=4, min_servers=2)
    assert BAND(99.0, 4, 0, slo).action == "hold"  # at max
    assert BAND(0.1, 2, 0, slo).action == "hold"  # at min


def test_policy_cooldown_suppresses_oscillation():
    slo = SloConfig()
    assert BAND(15.0, 2, 0, slo).action == "grow"
    # While the controller's cooldown clock is running even a huge spike
    # (the join-init cost) must not trigger another resize.
    assert BAND(30.0, 3, 2, slo).action == "hold"
    assert BAND(30.0, 3, 1, slo).action == "hold"
    assert BAND(30.0, 3, 0, slo).action == "grow"


def test_policy_grow_step_clamped():
    band = ThresholdBand(high=10, low=2, grow_step=8)
    assert band(99.0, 4, 0, SloConfig(max_servers=5)).amount == 1


def test_autoscaler_bounds_growing_workload():
    """End to end: a DWI-like growing workload stays under the target
    once the controller kicks in — Fig. 10, but automatic."""
    from repro.bench.harness import ColzaExperiment
    from repro.core.pipelines import DWIVolumeScript

    exp = ColzaExperiment(
        n_servers=2,
        n_clients=4,
        script=DWIVolumeScript(),
        server_procs_per_node=4,
        client_nodes_offset=30,
        swim_period=0.5,
        seed=31,
        nodes=64,
    ).setup()
    scaler = exp.autoscaler(
        SloConfig(max_servers=16, cooldown_iterations=2), first_node=8,
        policy=ThresholdBand(high=2.0, low=0.1, grow_step=2),
    )

    execute_times = []
    servers = []
    for it in range(1, 13):
        # Growing VTU-style payload: 50 MB per client per iteration step
        # (the DWI script prices virtual payloads at ~50 bytes/cell),
        # split into 16 blocks per client so staging can spread over
        # more servers than clients.
        per_block = int(50e6) * it // 16
        blocks = [
            [(c * 16 + b, VirtualPayload((per_block,), "uint8")) for b in range(16)]
            for c in range(4)
        ]
        timing = exp.run_iteration(it, blocks)
        execute_times.append(timing.execute)
        servers.append(timing.n_servers)
        drive(exp.sim, scaler.step_from_trace(), max_time=600)

    assert servers[-1] > servers[0]  # it grew
    grew = sum(1 for d in scaler.decisions if d.action == "grow")
    assert grew >= 2
    # Despite a 12x workload growth, non-join iterations stay bounded
    # (join-init spike iterations are the exception, as in Fig. 10):
    # without scaling, iteration 12 on 2 servers would take ~29 s.
    steady_late = min(execute_times[-3:])
    assert steady_late < 8.0


# ---------------------------------------------------------------------------
# FieldStats / StatisticsBackend
def test_field_stats_update_and_merge():
    a = FieldStats()
    a.update(np.array([1.0, 2.0, 3.0]))
    b = FieldStats()
    b.update(np.array([10.0, -5.0]))
    a.merge(b)
    assert a.count == 5
    assert a.total == pytest.approx(11.0)
    assert a.minimum == -5.0 and a.maximum == 10.0
    assert a.mean == pytest.approx(2.2)
    roundtrip = FieldStats.from_wire(a.to_wire())
    assert roundtrip.count == a.count and roundtrip.total == a.total


def test_field_stats_empty():
    s = FieldStats()
    assert np.isnan(s.mean)
    s.update(np.array([]))
    assert s.count == 0


def block_with_field(values):
    n = 2
    img = ImageData(dims=(n, n, n))
    img.set_field("u", np.asarray(values, dtype=np.float64).reshape(n, n, n))
    return img


def make_stats_deployment(sim, nservers):
    deployment = Deployment(sim, swim_config=FAST_SWIM)
    drive(sim, deployment.start_servers(nservers), max_time=300)
    run_until(sim, deployment.converged, max_time=300)
    client_margo, client = deployment.make_client(node_index=40)
    drive(sim, client.connect())
    drive(
        sim,
        deployment.deploy_pipeline(client_margo, "stats", "libcolza-stats.so", {"fields": ["u"]}),
    )
    return deployment, client_margo, client, client.distributed_pipeline_handle("stats")


def run_stats_iteration(sim, handle, iteration, blocks):
    def body():
        yield from handle.activate(iteration)
        for block_id, payload in blocks:
            yield from handle.stage(iteration, block_id, payload)
        yield from handle.execute(iteration)
        yield from handle.deactivate(iteration)

    drive(sim, body(), max_time=2000)


def global_stats(deployment, field="u"):
    total = FieldStats()
    for d in deployment.live_daemons():
        backend = d.provider.pipelines["stats"]
        if field in backend.stats:
            total.merge(backend.stats[field])
    return total


def test_statistics_backend_accumulates_across_iterations():
    sim = Simulation(seed=41)
    deployment, _, _, handle = make_stats_deployment(sim, 2)
    rng = np.random.default_rng(0)
    all_values = []
    for it in (1, 2, 3):
        blocks = []
        for b in range(4):
            values = rng.normal(size=8)
            all_values.append(values)
            blocks.append((b, block_with_field(values)))
        run_stats_iteration(sim, handle, it, blocks)
    ref = np.concatenate(all_values)
    got = global_stats(deployment)
    assert got.count == ref.size
    assert got.total == pytest.approx(ref.sum())
    assert got.minimum == pytest.approx(ref.min())
    assert got.maximum == pytest.approx(ref.max())


def test_state_migrates_on_leave():
    """Future work (3): scale-down does not lose accumulated state."""
    sim = Simulation(seed=42)
    deployment, client_margo, client, handle = make_stats_deployment(sim, 3)
    rng = np.random.default_rng(1)
    all_values = []
    for it in (1, 2):
        blocks = []
        for b in range(6):
            values = rng.uniform(-3, 3, size=8)
            all_values.append(values)
            blocks.append((b, block_with_field(values)))
        run_stats_iteration(sim, handle, it, blocks)

    before = global_stats(deployment)
    victim = max(deployment.live_daemons(), key=lambda d: d.address)
    victim_count = victim.provider.pipelines["stats"].stats["u"].count
    assert victim_count > 0  # it holds real state

    admin = ColzaAdmin(client_margo)
    drive(sim, admin.request_leave(victim.address), max_time=300)
    run_until(sim, lambda: not victim.running, max_time=300)
    run_until(sim, deployment.converged, max_time=300)

    after = global_stats(deployment)
    assert after.count == before.count  # nothing lost
    assert after.total == pytest.approx(before.total)
    assert after.minimum == before.minimum
    assert after.maximum == before.maximum
    assert len(deployment.live_daemons()) == 2


def test_deferred_leave_still_migrates():
    """A leave requested mid-iteration migrates at deactivate time."""
    sim = Simulation(seed=43)
    deployment, client_margo, client, handle = make_stats_deployment(sim, 2)
    blocks = [(b, block_with_field(np.full(8, b + 1.0))) for b in range(4)]
    victim = max(deployment.live_daemons(), key=lambda d: d.address)
    admin = ColzaAdmin(client_margo)

    def body():
        yield from handle.activate(1)
        response = yield from admin.request_leave(victim.address)
        assert response == "deferred"
        for block_id, payload in blocks:
            yield from handle.stage(1, block_id, payload)
        yield from handle.execute(1)
        before = global_stats(deployment)
        yield from handle.deactivate(1)
        return before

    before = drive(sim, body(), max_time=2000)
    run_until(sim, lambda: not victim.running, max_time=300)
    after = global_stats(deployment)
    assert after.count == before.count
    assert after.total == pytest.approx(before.total)


def test_non_stateful_backend_merge_raises():
    from repro.core.backend import Backend

    backend = Backend(margo=None, name="plain")
    assert backend.get_state() is None
    assert backend.stateful is False
    with pytest.raises(NotImplementedError):
        backend.merge_state({})


# ---------------------------------------------------------------------------
# binomial reduce (optimized collectives ablation)
@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13])
def test_binomial_reduce_matches_numpy(size):
    sim = Simulation()
    _, _, comms = build_mona_world(sim, size)
    contribs = [np.arange(5) * (r + 1) for r in range(size)]

    def body(c):
        return (yield from c.reduce(contribs[c.rank], op=SUM, root=0, algorithm="binomial"))

    results = run_all(sim, [body(c) for c in comms])
    assert np.array_equal(results[0], np.sum(contribs, axis=0))


def test_binomial_reduce_nonzero_root():
    sim = Simulation()
    _, _, comms = build_mona_world(sim, 6)

    def body(c):
        return (yield from c.reduce(c.rank, op=SUM, root=3, algorithm="binomial"))

    results = run_all(sim, [body(c) for c in comms])
    assert results[3] == 15


def test_unknown_reduce_algorithm_rejected():
    sim = Simulation()
    _, _, comms = build_mona_world(sim, 2)

    def body(c):
        return (yield from c.reduce(c.rank, algorithm="allreduce-ring"))

    with pytest.raises(ValueError):
        run_all(sim, [body(c) for c in comms])


def test_binomial_faster_than_binary_at_scale():
    """The paper: 'implementing more optimized collectives in MoNA ...
    could further improve its performance' — quantified."""
    def reduce_time(algorithm):
        sim = Simulation()
        _, _, comms = build_mona_world(sim, 128, procs_per_node=16)
        payload = VirtualPayload((256,), "int64")

        def body(c):
            return (yield from c.reduce(payload, op=BXOR, root=0, algorithm=algorithm))

        start = sim.now
        run_all(sim, [body(c) for c in comms])
        return sim.now - start

    assert reduce_time("binomial") < reduce_time("binary")
