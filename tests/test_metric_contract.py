"""The metric contract: what ``sim.metrics`` reports, byte for byte.

Layers hold their metrics as handles resolved once (or, for totals a
layer already keeps, as pulled views of its own counts), so a report is
only right if every handle is the object the registry reports. These
tests pin the serialized snapshot of a few representative runs, and
check that identity after a run.
"""

import hashlib
import json

from repro.bench.harness import ColzaExperiment
from repro.chaos import run_scenario
from repro.core.pipelines import IsoSurfaceScript
from repro.na import VirtualPayload
from repro.sim import Simulation
from repro.testing import build_margo_ring, drive

#: SHA-256 of ``json.dumps(sim.metrics.snapshot(), sort_keys=True)``,
#: recorded while every layer still looked its metrics up per event and
#: the fabric pushed each message into registry counters.
SNAPSHOT_DIGESTS = {
    # Re-pinned when frames came to be priced as IceT's sparse image: only
    # na.bytes_sent, na.send_transit_seconds and mona.collective_seconds moved.
    "colza_iteration": "85171eec2c165b59b86681a46aad68b8eacd7c6a1d669a308784946cf7e06d1a",
    "drop_during_2pc@3": "b6c88aeafea281fc6ced42fcee5bfe57139633e28cd7f009669d04a9930641d5",
    # Re-pinned when the scenario's counter reads stopped registering
    # metrics: the snapshot lost four zero-valued counters no layer ever
    # incremented (core.restage_fallbacks, tenant.alpha.restage_fallbacks,
    # tenant.beta.iteration_retries, tenant.beta.restage_fallbacks).
    # Re-pinned when terminal SWIM records came to ride the 2PC: abort
    # acks and the retry's prepares carry DEAD records, so only
    # na.bytes_sent (+2 091 B), na.send_transit_seconds and the
    # margo.compute_seconds that follow them (nanoseconds) moved.
    # Re-pinned when an activate stopped sleeping before a view it had not
    # yet proposed: only margo.compute_seconds moved, its max and total
    # down by the 36.4 ms backoff beta's activate no longer takes.
    "tenant_owner_crash_recovery_isolated@3": "bff54c47ce1cbda77e90599e7798399adc97da8b5f8ea0d1d288156500c90952",
    "two_fabrics": "3f7ffc67702452bb38a955b904214fc0e52cf6f45e77ea91b3339453183a6a03",
}


def _digest(sim) -> str:
    return hashlib.sha256(
        json.dumps(sim.metrics.snapshot(), sort_keys=True).encode()
    ).hexdigest()


def _experiment():
    exp = ColzaExperiment(
        4, 8, IsoSurfaceScript(field="dist", isovalues=[1.0]),
        seed=42, width=64, height=64, library="libcolza-iso.so",
    ).setup()
    exp.run_iteration(1, [[(c, VirtualPayload((8192,), "float64"))] for c in range(8)])
    return exp


def _scenario_sim(name, seed):
    result = run_scenario(name, seed=seed)
    assert result.ok, result.violations
    return result.sim


def _two_fabrics():
    """Two Margo rings, each on its own fabric, sharing one simulation:
    RPCs and a bulk pull on both, so the pulled ``na`` totals sum."""
    sim = Simulation(seed=5)
    rings = [build_margo_ring(sim, 3, name_prefix=p)[1] for p in ("left", "right")]

    def echo(_hg, value):
        return value
        yield

    for ring in rings:
        for margo in ring:
            margo.hg.register_rpc("echo", echo)

    def body():
        for ring in rings:
            for i, margo in enumerate(ring):
                peer = ring[(i + 1) % len(ring)]
                yield from margo.forward(peer.address, "echo", list(range(i + 3)))
                yield from margo.compute(1e-4 * (i + 1))
            payload = yield ring[0].bulk_pull(ring[1].expose(VirtualPayload((1000,), "float64")))
            assert payload.nbytes == 8000

    drive(sim, body())
    return sim, rings


def test_one_colza_iteration_snapshot_is_pinned():
    assert _digest(_experiment().sim) == SNAPSHOT_DIGESTS["colza_iteration"]


def test_chaos_scenario_snapshots_are_pinned():
    for name in ("drop_during_2pc", "tenant_owner_crash_recovery_isolated"):
        assert _digest(_scenario_sim(name, 3)) == SNAPSHOT_DIGESTS[f"{name}@3"], name


def test_scenario_counter_reads_register_nothing():
    """A scenario reads counters it expects to stay at zero; reading
    one the run never incremented must not put it in the snapshot."""
    sim = _scenario_sim("tenant_owner_crash_recovery_isolated", 3)
    assert sim.metrics.get("tenant.beta.restage_fallbacks") is None


def test_two_fabrics_on_one_simulation_report_the_sum():
    sim, rings = _two_fabrics()
    fabrics = [ring[0].fabric for ring in rings]
    assert fabrics[0] is not fabrics[1]
    assert all(f.messages_sent > 0 for f in fabrics)
    messages = sim.metrics.get("na.messages_sent").value
    assert messages == float(sum(f.messages_sent for f in fabrics))
    assert sim.metrics.get("na.bytes_sent").value == float(sum(f.bytes_sent for f in fabrics))
    assert _digest(sim) == SNAPSHOT_DIGESTS["two_fabrics"]


def test_every_held_handle_is_the_metric_the_registry_reports():
    """After a run, each layer's handle and the registry's entry are one
    object (and the pulled ``na`` totals read the fabric itself): no
    layer counts into a metric the snapshot no longer reports."""
    from repro.telemetry.metrics import Counter, Histogram

    exp = _experiment()
    metrics, fabric = exp.sim.metrics, exp.deployment.fabric
    holders = [fabric]
    for daemon in exp.deployment.live_daemons():
        provider = daemon.provider
        holders += [daemon.margo, daemon.agent, provider._core_counters]
        holders += provider._tenant_counters.values()
        holders += [p.comm for p in provider.pipelines.values() if getattr(p, "comm", None)]
    handles = [
        (type(holder).__name__, value)
        for holder in holders
        for value in vars(holder).values()
        if isinstance(value, (Counter, Histogram))
    ]
    assert {kind for kind, _ in handles} == {
        "Fabric", "MargoInstance", "SSGAgent", "_Counters", "MonaComm",
    }
    for kind, handle in handles:
        assert metrics.get(handle.name) is handle, (kind, handle.name)
    for name in ("messages_sent", "bytes_sent"):
        assert metrics.get(f"na.{name}").sources == [(fabric, name)]
