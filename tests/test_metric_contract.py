"""The metric contract: what ``sim.metrics`` reports, byte for byte.

Layers hold their metrics as handles resolved once (or, for totals a
layer already keeps, as pulled views of its own counts), so a report is
only right if every handle is the object the registry reports. The
serialized snapshots of a few representative runs are rows of
``test_pins.PINS``; these tests read the same runs and check that
identity after a run.
"""

from tests.test_pins import produce


def test_scenario_counter_reads_register_nothing():
    """A scenario reads counters it expects to stay at zero; reading
    one the run never incremented must not put it in the snapshot."""
    sim = produce("tenant_owner_crash_recovery_isolated@3").sim
    assert sim.metrics.get("tenant.beta.restage_fallbacks") is None


def test_two_fabrics_on_one_simulation_report_the_sum():
    run = produce("two_fabrics")
    sim, rings = run.sim, run.rings
    fabrics = [ring[0].fabric for ring in rings]
    assert fabrics[0] is not fabrics[1]
    assert all(f.messages_sent > 0 for f in fabrics)
    messages = sim.metrics.get("na.messages_sent").value
    assert messages == float(sum(f.messages_sent for f in fabrics))
    assert sim.metrics.get("na.bytes_sent").value == float(sum(f.bytes_sent for f in fabrics))


def test_every_held_handle_is_the_metric_the_registry_reports():
    """After a run, each layer's handle and the registry's entry are one
    object (and the pulled ``na`` totals read the fabric itself): no
    layer counts into a metric the snapshot no longer reports."""
    from repro.telemetry.metrics import Counter, Histogram

    exp = produce("colza_iteration")
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
