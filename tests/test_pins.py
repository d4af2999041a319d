"""The exact pins that are not paper rows, one :data:`PINS` row each: chaos trace digests, metric
snapshots, the bytes of the trace exports, trajectory counts and mcheck frontiers.

A row is keyed ``<run>.<quantity>`` by the run of :data:`RUNS` it reads, so one run feeds every
value pinned on it; other test files read the same results through :data:`produce`. A moved value
fails printing the line to paste back (``tests/pinning.py``, shared with ``test_fidelity``): paste
it with the reason as a comment above the row. These runs show no paper result, so they stay out
of ``test_fidelity.RUNS``, which ``tools/reach.py`` runs as result drivers.
"""

import functools
import hashlib
import json
import operator
import tempfile
import types
from pathlib import Path

import pytest

from repro.analysis.mcheck import explore
from repro.bench.harness import ColzaExperiment
from repro.bench.trajectory import SCENES
from repro.chaos import run_scenario
from repro.core.pipelines import IsoSurfaceScript
from repro.na import VirtualPayload
from repro.sim import Simulation
from repro.telemetry import write_chrome_trace
from repro.testing import build_margo_ring, drive
from tests.pinning import Row, check, producer


def _scenario(name, seed):
    result = run_scenario(name, seed=seed)
    assert result.ok, result.violations
    return result


def _experiment(iterations):
    exp = ColzaExperiment(
        4, 8, IsoSurfaceScript(field="dist", isovalues=[1.0]),
        seed=42, width=64, height=64, library="libcolza-iso.so",
    ).setup()
    blocks = [[(c, VirtualPayload((8192,), "float64"))] for c in range(8)]
    for iteration in range(1, iterations + 1):
        exp.run_iteration(iteration, blocks)
    return exp


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
                yield from margo.hg.forward(peer.address, "echo", list(range(i + 3)))
                yield from margo.compute(1e-4 * (i + 1))
            payload = yield ring[0].bulk_pull(ring[1].expose(VirtualPayload((1000,), "float64")))
            assert payload.nbytes == 8000

    drive(sim, body())
    return types.SimpleNamespace(sim=sim, rings=rings)


#: Every run a row reads, each run once per session, and the explorations the clean-tree mcheck
#: test reads (``tenant_churn``'s frontier is not pinned).
RUNS = {
    **{f"{name}@{seed}": functools.partial(_scenario, name, seed) for name, seed in (
        ("drop_during_2pc", 3), ("drop_during_2pc", 11), ("churn_stress", 3), ("churn_stress", 11),
        ("tenant_churn_storm", 3), ("tenant_owner_crash_recovery_isolated", 3),
        ("tenant_recovery_race", 3))},
    "colza_iteration": functools.partial(_experiment, 1),
    "colza_two_iterations": functools.partial(_experiment, 2),
    "two_fabrics": _two_fabrics,
    **{f"trajectory.{name}": scene for name, scene in SCENES.items()},
    **{f"mcheck.{name}": functools.partial(explore, name, 0, max_schedules=16)
       for name in ("quota_backpressure", "tenant_churn", "prepare_first_no", "prepare_relay")},
}
produce = producer(RUNS)


_digest = operator.attrgetter("digest")


def _snapshot(run):
    """SHA-256 of ``json.dumps(sim.metrics.snapshot(), sort_keys=True)``, recorded while every
    layer still looked its metrics up per event and the fabric pushed each message into registry
    counters."""
    return hashlib.sha256(json.dumps(run.sim.metrics.snapshot(), sort_keys=True).encode()).hexdigest()


def _exports(run):
    """SHA-256 of the bytes ``write_chrome_trace`` and ``Tracer.to_json`` write. ``digest()`` sorts
    keys; these do not, so a change to the order of a span's tags (begin's keys, then end's new
    keys) shows only here."""
    trace = run.sim.trace
    with tempfile.TemporaryDirectory() as out:
        return tuple(
            hashlib.sha256(Path(write(trace, str(Path(out) / name))).read_bytes()).hexdigest()
            for name, write in (("chrome.json", write_chrome_trace), ("trace.json", type(trace).to_json)))


def _frontier(report):
    """(runs, pruned, distinct traces, dependent pairs, choice points) of the first 16 schedules
    at seed 0: the frontier, exact for the seed."""
    return (report.runs, report.pruned, report.distinct_traces,
            len(report.dependent_pairs), report.choice_points)


PINS = {
    # -- Pinned-seed golden digests.
    #
    # These SHA-256 trace digests were captured from the chaos scenarios
    # before the kernel fast-path work (indexed event queue, incremental
    # membership views, in-place reduce folds) and must survive it — the
    # optimizations are only admissible if they are bit-identical on pinned
    # seeds. If a digest moves, either an optimization reordered events (a
    # bug) or a deliberate semantic change landed.
    #
    # Re-captured when the excuse rule came in (nobody waits on the
    # departed), one reason each; ``tenant_churn_storm`` — unanimous rounds
    # only — did not move. Re-captured again when terminal SWIM records came
    # to ride the 2PC (R3): the four entries marked R3 moved only because an
    # abort ack's ``gone`` entry is now a DEAD record (the address + 94 B)
    # instead of a bare address and the retry's prepares relay it, its
    # ``colza.activate`` span tagged ``relayed=1``; bytes and microsecond
    # transits moved, no round count, view or outcome did. Re-captured
    # again when an activate stopped sleeping before a view it had not yet
    # proposed (docs/protocols.md §2): the four entries marked "news" moved
    # by that backoff alone, no round count, view or outcome did.
    #
    # abort()'s deactivate now names the frozen view (134 -> 526 B on
    # the wire, its ack carries ``gone``); timings unchanged.
    "drop_during_2pc@3.digest": Row("drop_during_2pc@3", _digest, "b181f3f94e71ea9988e55374f2629d157819f80ce3f86f458e6b3ee4f8726ec1"),
    "drop_during_2pc@3.snapshot": Row("drop_during_2pc@3", _snapshot, "b6c88aeafea281fc6ced42fcee5bfe57139633e28cd7f009669d04a9930641d5"),
    # News: the three unreachable votes leave a one-server view not yet
    # proposed; the retry ends 2.107 -> 2.068 s after its start.
    "drop_during_2pc@11.digest": Row("drop_during_2pc@11", _digest, "d91527a69d68e1b9bdd34c9367fdac378f7bdc3661c9f9f07aa018dda9cd2dc1"),
    # The first activate after a leave is decided by the survivors' NO:
    # 4.05 s (two deadlines on the leaver) -> 0.05 s; the later
    # iterations run earlier against the churn (seed 3: views
    # [3, 3, 3, 4, 4] -> [3, 3, 3, 3, 3], the join lands after them).
    # R3. News: the one two-round activate takes 46.8 ms -> 0.017 ms
    # (seed 3) and 33.8 ms -> 0.017 ms (seed 11).
    "churn_stress@3.digest": Row("churn_stress@3", _digest, "d367c6c98689e6b4d2e994388cadfb0ef422c4a072e7d7b6ebfc18815cf54771"),
    "churn_stress@11.digest": Row("churn_stress@11", _digest, "63778fa4dd8c747272a09a71c059bfea292f10ff7467b970675b5e84379eaec8"),
    # Multi-tenant fabric (DESIGN §13): the tenancy layer shares the
    # same determinism contract — concurrent tenants, quota waits and
    # fair-share rotation must all replay bit-identically.
    "tenant_churn_storm@3.digest": Row("tenant_churn_storm@3", _digest, "4060e507a5f3420db781aeee34fee9c423705c51c218210b2f83a48f3bf80a7b"),
    # beta's activate after alpha's block owner crashed: 4.04 s (the
    # dead owner's prepare and abort deadlines) -> 0.04 s. R3. News:
    # 36.4 ms -> 0.017 ms, still two rounds.
    # Re-pinned when a crash came to kill its process's tasks: the
    # crashed server's execute no longer finishes after the crash; its
    # handler and margo.compute spans end at the crash, ``cancelled``.
    "tenant_owner_crash_recovery_isolated@3.digest": Row(
        "tenant_owner_crash_recovery_isolated@3", _digest, "08414be1d68ee424bae54be356f1a37599ced13dacc5a30eb25a3e1ff7b424e1"),
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
    # Re-pinned when a crash came to kill its process's tasks: the crashed
    # server's execute is no longer counted, so core.executes 18 -> 17,
    # tenant.alpha.executes 11 -> 10 and margo.compute_seconds count
    # 20 -> 19; nothing else moved.
    "tenant_owner_crash_recovery_isolated@3.snapshot": Row(
        "tenant_owner_crash_recovery_isolated@3", _snapshot, "22586178306f08c78bbabaa855582e95366c382c7b659c052bb8a58d2b923267"),
    "tenant_owner_crash_recovery_isolated@3.exports": Row("tenant_owner_crash_recovery_isolated@3", _exports, (
        "8e098f92f47beb27984cd7f115248070b918880b7c170592b4456ef5642f8807",
        "5faa4c4536902771b749fe67fd7b71947f5c4be743aa7796649e8e6b28ead97c")),
    # Both tenants' abort() names the frozen view (139 -> 531 B) and is
    # not awaited from the crashed member a survivor reports ``gone``. R3.
    # Re-pinned when a crash came to kill its process's tasks: colza-3's
    # two execute handlers end at its crash (15.80 s), ``cancelled``,
    # instead of running on to 16.44 and 18.08 s.
    "tenant_recovery_race@3.digest": Row("tenant_recovery_race@3", _digest, "7ff360d8d95ac69992c999b2c0b3a9c45815e67803e28f2a5726af77a6892464"),
    # -- One and two ColzaExperiment iterations (4 servers, 8 clients, seed 42) and two fabrics.
    # Re-pinned when frames came to be priced as IceT's sparse image: only
    # na.bytes_sent, na.send_transit_seconds and mona.collective_seconds moved.
    "colza_iteration.snapshot": Row("colza_iteration", _snapshot, "85171eec2c165b59b86681a46aad68b8eacd7c6a1d669a308784946cf7e06d1a"),
    "colza_two_iterations.exports": Row("colza_two_iterations", _exports, (
        "be04f80cbbc02f588ed586f3bf39e94331f9a985168dcb226c81f3ddb5d9b263",
        "e8aaf26080dc556b7e5418a197146e53b27c4ecf8668104e1b763e9f62e89899")),
    "two_fabrics.snapshot": Row("two_fabrics", _snapshot, "3f7ffc67702452bb38a955b904214fc0e52cf6f45e77ea91b3339453183a6a03"),
    # -- Every trajectory scene's row, exact for ``trajectory.SEED``.
    "trajectory.kernel_events.counts": Row("trajectory.kernel_events", dict, {
        "events_scheduled": 40100, "events_processed": 40100,
        "peak_queue_depth": 20100, "bulk_fired": 20000,
    }),
    "trajectory.kernel_cancel.counts": Row("trajectory.kernel_cancel", dict, {
        "events_scheduled": 30002, "events_processed": 6002, "cancels": 24000,
        "compactions": 2, "tombstones_left": 0, "peak_queue_depth": 30000,
    }),
    "trajectory.swim_churn_256.counts": Row("trajectory.swim_churn_256", dict, {
        "events_scheduled": 21959, "events_processed": 19778, "cancels": 2148,
        "peak_queue_depth": 35, "probes": 2117, "view_rebuilds": 0, "view_total_size": 8337,
    }),
    "trajectory.swim_churn_4096.counts": Row("trajectory.swim_churn_4096", dict, {
        "events_scheduled": 25749, "events_processed": 23573, "cancels": 2143,
        "peak_queue_depth": 35, "probes": 2112, "view_rebuilds": 0, "view_total_size": 131086,
    }),
    "trajectory.mona_reduce.counts": Row("trajectory.mona_reduce", dict, {
        "events_scheduled": 2034, "events_processed": 2034,
        "reduce_checksum": 270607899.98625064,
        # binary and binomial trees add floats in a different order, so the two need not be bit-identical
        "trees_bit_identical": False,
    }),
    "trajectory.autoscale_bursty.counts": Row("trajectory.autoscale_bursty", dict, {
        "slo_misses": 0, "resizes": 1, "resize_failures": 0, "final_servers": 4}),
    "trajectory.autoscale_adversarial.counts": Row("trajectory.autoscale_adversarial", dict, {
        "slo_misses": 2, "resizes": 3, "resize_failures": 0, "final_servers": 8}),
    # -- mcheck frontiers.
    "mcheck.quota_backpressure.frontier": Row("mcheck.quota_backpressure", _frontier, (5, 54, 2, 6, 32)),
    "mcheck.prepare_first_no.frontier": Row("mcheck.prepare_first_no", _frontier, (16, 458, 1, 18, 177)),
    "mcheck.prepare_relay.frontier": Row("mcheck.prepare_relay", _frontier, (16, 430, 1, 18, 168)),
}


@pytest.mark.parametrize("name", list(PINS))
def test_pin(name):
    check(name, PINS[name], produce)


def test_every_trajectory_scene_is_pinned():
    assert {f"trajectory.{name}" for name in SCENES} <= {row.run for row in PINS.values()}


def test_a_moved_value_fails_printing_the_line_to_paste_back():
    name = "two_fabrics.snapshot"
    observed = PINS[name].value
    with pytest.raises(AssertionError) as failed:
        check(name, PINS[name]._replace(value="0" * 64), produce)
    assert str(failed.value) == f"observed {name}, to re-pin with the reason:\n    value={observed!r},"
