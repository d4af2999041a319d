"""Operation-count budgets for the kernel fast paths.

Wall-clock is too noisy for tier-1 CI, but op counts are pinned-seed
deterministic: events scheduled, timer cancellations, tombstone
compactions, membership-view rebuilds, Python calls. The whole row of
every :mod:`repro.bench.trajectory` scene is a row of
``test_pins.PINS``. The budgets here pin the structural properties the
optimizations bought — if a refactor quietly reintroduces per-probe
view re-sorts or stops canceling lost-race deadline timers, a test here
trips long before anyone reads a benchmark report.
"""

import gc

import numpy as np
import pytest

from repro.sim import Simulation
from repro.ssg import SwimConfig, converged
from repro.testing import build_ssg_group, run_until


def _run_small_group(n_agents=6, seed=21, extra_seconds=30.0):
    sim = Simulation(seed=seed)
    fabric, margos, agents = build_ssg_group(
        sim, n_agents, config=SwimConfig(period=0.25)
    )
    run_until(sim, lambda: converged(agents), max_time=120)
    sim.run(until=sim.now + extra_seconds)
    return sim, agents


def test_membership_views_never_rebuild():
    """Incremental alive-cache: joins/leaves are O(log n) deltas; the
    O(n log n) full re-sort cold path must never run in steady state."""
    sim, agents = _run_small_group()
    assert all(agent.view.rebuilds == 0 for agent in agents)
    # ... and the caches are actually being read (alive views served).
    assert all(agent.view.size() >= 1 for agent in agents)


def test_lost_race_timers_are_canceled():
    """Every answered ping's deadline timer must be withdrawn, not left
    to pop as a tombstone-free dead event (the pre-optimization tax)."""
    sim, agents = _run_small_group()
    stats = sim.queue_stats()
    probes = sim.metrics.get("ssg.probes")
    assert probes is not None and probes.value > 0
    # At least one cancellation per successful probe (the RPC deadline
    # that lost its race to the reply).
    assert stats["cancels"] >= probes.value


def test_swim_event_budget_does_not_scale_with_view_size():
    """SWIM's per-period work is O(active agents), not O(view size):
    quadrupling the membership with the same active sample must leave
    the kernel event budget flat (within slack for piggyback traffic)."""
    from repro.bench.trajectory import build_swim_churn

    def events_at(n_members):
        sim, _ = build_swim_churn(n_members, seed=77, active=8, spares=16)
        sim.run(until=sim.now + 10.0)
        return sim.queue_stats()["pushes"]

    small, large = events_at(64), events_at(256)
    assert large <= small * 1.5, (small, large)


def test_cancel_heavy_load_compacts_tombstones():
    """A cancel-dominated workload must trigger compaction and keep the
    physical heap from growing unboundedly past the live set."""
    sim = Simulation(seed=5)

    def driver():
        timers = [sim.timeout(10.0 + i * 1e-3) for i in range(2000)]
        for i, ev in enumerate(timers):
            if i % 10:
                ev.cancel()
        yield sim.timeout(0)

    sim.spawn(driver(), name="canceler")
    sim.run()
    stats = sim.queue_stats()
    assert stats["cancels"] == 1800
    assert stats["compactions"] >= 1
    assert stats["tombstones"] <= stats["cancels"] // 2


def test_queue_stats_publishes_metric_gauges():
    """queue_stats() doubles as the gauge exporter for sim.metrics."""
    sim = Simulation(seed=3)

    def waiter():
        yield sim.timeout(1.0)

    sim.spawn(waiter(), name="t")
    sim.run()
    sim.queue_stats()
    for gauge in (
        "sim.event_queue_depth",
        "sim.event_queue_tombstones",
        "sim.event_queue_peak_depth",
    ):
        metric = sim.metrics.get(gauge)
        assert metric is not None, gauge
    assert sim.metrics.get("sim.event_queue_peak_depth").value >= 1


def test_inplace_reduce_folds_match_sequential_combines():
    """The vectorized in-place folds must be bit-identical to the naive
    left fold for every collective op, dtype quirks included."""
    from repro.mona import ops

    rng = np.random.default_rng(123)
    floats = [rng.random(257) * (i + 1) for i in range(9)]
    ints = [rng.integers(0, 1 << 30, size=257) for _ in range(9)]
    bools = [rng.random(257) < 0.5 for _ in range(9)]

    cases = [
        (ops.SUM, floats), (ops.PROD, floats),
        (ops.MIN, floats), (ops.MAX, floats),
        (ops.SUM, ints), (ops.BXOR, ints), (ops.BOR, ints), (ops.BAND, ints),
        (ops.LOR, bools), (ops.LAND, bools),
    ]
    for op, chunks in cases:
        naive = chunks[0]
        for chunk in chunks[1:]:
            naive = op(naive, chunk)
        fast = op.combine_many(chunks[0], chunks[1:])
        assert naive.dtype == fast.dtype, op.name
        assert np.array_equal(naive, fast), op.name


def test_run_iteration_cost_is_independent_of_trace_history():
    """The iteration's timing is read off the span ``iteration_body``
    opened, so ``run_iteration`` costs its own subtree: 50 000 finished
    spans already in the tracer must not add Python calls (exact for a
    seed; a per-iteration rebuild of the whole tree adds several per
    recorded span)."""
    import cProfile
    import pstats

    from repro.bench.harness import ColzaExperiment
    from repro.core.pipelines import IsoSurfaceScript
    from repro.na import VirtualPayload

    def calls(history):
        exp = ColzaExperiment(
            2, 4, IsoSurfaceScript(field="dist", isovalues=[1.0]),
            seed=9, width=32, height=32, library="libcolza-iso.so",
        ).setup()
        trace = exp.sim.trace
        for _ in range(history):
            trace.end(trace.begin("history"))
        blocks = [[(c, VirtualPayload((1024,), "float64"))] for c in range(4)]
        profile = cProfile.Profile()
        profile.runcall(exp.run_iteration, 1, blocks)
        assert exp.timings[-1].execute > 0.0
        return pstats.Stats(profile).total_calls

    fresh, aged = calls(0), calls(50_000)
    assert abs(aged - fresh) <= 0.01 * fresh, (fresh, aged)


def _span_scene(trace, addresses, n_async=20_000, n_nested=2_000):
    """``n_async`` message transits shaped like ``na.send`` (two
    addresses and a size as it begins, ``dropped`` as it ends), then
    ``n_nested`` spans two deep: an RPC and the compute it charges."""
    sizes = (112, 4096, 65_536)
    for k in range(n_async):
        store = trace.spans
        row = trace.depart("na.send", addresses[k % 8], addresses[(k + 1) % 8], sizes[k % 3])
        trace.arrive(store, row, False)
    for k in range(n_nested // 2):
        outer = trace.begin("hg.forward", rpc="echo", dest=addresses[k % 8])
        trace.end(trace.begin("margo.compute", instance="a", seconds=0.5))
        trace.end(outer, status="ok")


def test_a_finished_span_keeps_no_python_object():
    """A finished span is its cells in the tracer's columns: 22 000 of
    them (20 000 ``na.send``-shaped, 2 000 nested) add at most 0.01
    GC-tracked objects and 96 traced bytes each, whatever their tags
    hold (-0.001 and 82.5 measured). While the tracer kept a ``Span``
    object, a tags dict and a children list per span, the same scene
    added 2.0 objects and 340 bytes a span."""
    import tracemalloc

    from repro.na import Address

    sim = Simulation(seed=1)
    addresses = [Address(f"na+sim://nid{n:05d}/colza-{n}") for n in range(8)]
    _span_scene(sim.trace, addresses, 100, 100)  # every kind of span seen once
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _span_scene(sim.trace, addresses)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tracked, finished = len(gc.get_objects()) - objects, 22_000
    assert tracked / finished <= 0.01, tracked
    assert grown / finished <= 96, grown / finished


# ---------------------------------------------------------------------------
# the message path: one flat hop per message (counts, exact for a seed)
def _echo_pair():
    """Two Margo instances, ``b`` exporting an ``echo`` RPC."""
    from repro.margo import MargoInstance
    from repro.na import Fabric

    sim = Simulation(seed=1)
    fabric = Fabric(sim)
    a = MargoInstance(sim, fabric, "a", 0)
    b = MargoInstance(sim, fabric, "b", 1)

    def echo(_hg, value):
        return value
        yield

    b.hg.register_rpc("echo", echo)
    sim.run()
    return sim, a, b


def test_echo_rpc_round_trip_stays_under_its_call_budget():
    """One RPC with a deadline — caller task, forward span, request send,
    dispatch, handler task and span, reply send, deadline timer canceled —
    is 9 scheduled kernel events and 4 spans, and costs at most 153
    Python + C calls (145 measured; 169 while its two messages were span
    handles with eagerly folded histograms and a ``Fabric.send`` hop; 193
    while the fabric pushed every message into registry counters, spans
    opened through a second call and the endpoint tables hashed
    addresses in Python; 371 before the per-message path was
    flattened). None of them hashes an address."""
    sim, a, b = _echo_pair()
    got = []

    def caller():
        got.append((yield from a.hg.forward(b.address, "echo", 7, timeout=1.0)))

    def round_trip():
        sim.spawn(caller())
        sim.run()

    round_trip()  # warms the per-size cost memo and the metric registry
    before, spans = sim.queue_stats(), len(sim.trace.spans)
    calls, _ = _profiled_calls(round_trip)
    after = sim.queue_stats()
    assert got == [7, 7]
    assert after["pushes"] - before["pushes"] == 9
    assert after["pops"] - before["pops"] == 8 and after["cancels"] - before["cancels"] == 1
    assert [s.name for s in sim.trace.spans[spans:]] == [
        "hg.forward", "na.send", "hg.handler", "na.send",
    ]
    assert calls <= 153, calls
    names, _ = _profiled_entries(round_trip)
    assert "__hash__" not in names  # endpoints, horizons, dedup: keyed by uri


def test_one_message_costs_a_pinned_call_count():
    """One message with tracing on — ``Endpoint.send`` (cost, FIFO
    horizon, the fabric's counts and a buffered transit-time
    observation, its transit row departing), the arrival (mailbox
    delivery, the row's end and ``dropped`` cells) and the waiting
    receiver's wake-up and next ``recv`` — makes exactly 36 Python + C
    calls, scaffolding included. It made 37 while ``CostModel.p2p_time``
    probed its memo with ``dict.get``, and 47 while the message opened an
    ``na.send`` span handle (``begin_async``, ``Span.__init__``, ``end``
    and the ``dict.values`` of its tags), the histogram called ``log`` /
    ``ceil`` / ``bisect_left`` per value, the endpoint forwarded to
    ``Fabric.send`` / ``Fabric.recv`` / ``_Mailbox.receive`` and the
    endpoint and horizon tables were probed with ``dict.get``."""
    from repro.na import Fabric, get_cost_model

    sim = Simulation(seed=1)
    fabric = Fabric(sim)
    a = fabric.register("a", 0, get_cost_model("mona"))
    b = fabric.register("b", 1, get_cost_model("mona"))
    got = []

    def receiver():
        while True:
            got.append((yield b.recv(tag=7)))

    def one_message():
        a.send(b.address, 0, tag=7, nbytes=64)
        sim.run()

    sim.spawn(receiver(), name="rx")
    one_message()  # warms the per-size cost memo; the first observation takes QuantileSketch.add
    names, _ = _profiled_entries(one_message)
    assert len(got) == 2 and [s.name for s in sim.trace.spans] == ["na.send", "na.send"]
    assert sum(names.values()) == 36, sum(names.values())


def test_steady_swim_ping_stays_under_its_call_and_heap_budgets():
    """A ping round trip in a converged 16-member group whose rumours are
    spent — period timer, probe span, ping RPC with its deadline, handler,
    reply — costs at most 210 Python + C calls (199.5 measured; 225
    while its messages were span handles with eagerly folded histograms
    and a ``Fabric.send`` hop, 261 while the membership view's reads
    went through SimTSan's wrappers and probes looked their counter up
    in the registry, 302 while every wake-up went through the heap and
    ``address`` was a chain of three properties) and puts at most 5
    entries on the heap: the period
    timer, the deadline, two message arrivals and the handler's compute
    charge. The other 5 scheduled calls are same-instant wake-ups, which
    take the run lane (12 ``heappush`` calls before it)."""
    sim = Simulation(seed=21)
    _, _, agents = build_ssg_group(sim, 16, config=SwimConfig(period=0.25))
    run_until(sim, lambda: converged(agents), max_time=120)
    sim.run(until=sim.now + 30.0)
    probes = sim.metrics.get("ssg.probes")
    probes_before, queue_before = probes.value, sim.queue_stats()
    names, _ = _profiled_entries(lambda: sim.run(until=sim.now + 10.0))
    pings = probes.value - probes_before
    queue_after = sim.queue_stats()
    assert pings >= 600
    assert sum(names.values()) <= 210 * pings, sum(names.values()) / pings
    heap_pushes = sum(n for name, n in names.items() if "heappush" in name)
    assert heap_pushes <= 5 * pings, heap_pushes / pings
    # ... and the lane's entries are still counted as calls scheduled.
    assert queue_after["pushes"] - queue_before["pushes"] >= 10 * pings - 16


def _steady_experiment():
    """A 2-server iso experiment past its first iteration: every
    handle resolved, every memo warm."""
    from repro.bench.harness import ColzaExperiment
    from repro.core.pipelines import IsoSurfaceScript
    from repro.na import VirtualPayload

    exp = ColzaExperiment(
        2, 4, IsoSurfaceScript(field="dist", isovalues=[1.0]),
        seed=9, width=32, height=32, library="libcolza-iso.so",
    ).setup()
    blocks = [[(c, VirtualPayload((1024,), "float64"))] for c in range(4)]
    exp.run_iteration(1, blocks)
    return exp, blocks


def test_a_steady_stage_rpc_never_reaches_the_metrics_registry():
    """An event with no observer pays nothing: the provider counts a
    staged block into handles it resolved once per tenant, so a stage RPC
    — client call, RDMA pull, handler — makes no registry lookup."""
    from repro.na import VirtualPayload
    from repro.testing import drive

    exp, _ = _steady_experiment()
    lead = exp.handles[0]
    drive(exp.sim, lead.activate(2))
    names, by_file = _profiled_entries(
        drive, exp.sim, lead.stage(2, 0, VirtualPayload((1024,), "float64"))
    )
    assert "_rpc_stage" in by_file["provider.py"]  # the handler ran
    assert "_get_or_create" not in names and "scope" not in names
    drive(exp.sim, lead.execute(2))
    drive(exp.sim, lead.deactivate(2))


def test_a_steady_prepare_and_its_yes_votes_cost_a_pinned_call_count():
    """Terminal SWIM records ride a prepare only when the coordinator
    holds some (docs/protocols.md §2, R3): a round with nothing to relay
    — the client's ``_prepare``, both handlers and both YES replies —
    makes exactly 604 Python + C calls: 648 less eleven for each of its
    four messages, as ``test_one_message_costs_a_pinned_call_count``
    itemises. The 648 were the 658
    it made before records rode the 2PC, less ten, since its 8 spans
    became column rows. Stepped event by event, so no background SWIM
    work lands inside the count. Summed per profiler entry: ``pstats``
    keys entries by label, and two that share one overwrite each other
    in an order that varies from process to process."""
    exp, _ = _steady_experiment()
    sim, lead = exp.sim, exp.handles[0]
    proposed = tuple(sorted(lead.client.view))
    rounds = []

    def one_round():
        task = sim.spawn(lead._prepare(2, proposed), name="prepare")
        while not task.finished:
            sim.step()
        rounds.append(task.done.value)

    one_round()  # warms the per-size cost memo
    names, _ = _profiled_entries(one_round)
    votes, dissent = rounds[-1]
    assert dissent is None and [v["vote"] for v in votes] == ["yes", "yes"]
    assert sum(names.values()) == 604, sum(names.values())


def test_an_uninstrumented_iteration_calls_no_interceptor_hook():
    """Every hook site (``na.send``, ``na.rdma``, ``hg.handler``,
    ``margo.compute``, ``ssg.gossip``) probes ``sim._interceptors``
    before it calls ``intercept``: with nothing installed, a whole
    iteration makes no such call."""
    exp, blocks = _steady_experiment()
    assert not exp.sim._interceptors
    names, _ = _profiled_entries(exp.run_iteration, 2, blocks)
    assert names.get("run_iteration") == 1
    assert "intercept" not in names


def test_histogram_observe_stays_under_its_call_budget():
    """One observation per message: the sketch update is spelled out in
    ``observe`` (itself, ``log``, ``ceil``, ``bisect_left``), not a chain
    of ``add`` / ``_key`` / ``isnan`` / ``abs`` / ``dict.get`` under it."""
    from repro.telemetry.metrics import Histogram

    hist = Histogram("transit")
    hist.observe(3e-6)  # the first observation takes QuantileSketch.add
    noop_calls, _ = _profiled_calls(lambda: None)
    calls, _ = _profiled_calls(hist.observe, 2e-6)
    assert calls - noop_calls + 1 <= 7, calls - noop_calls + 1
    assert hist.count == 2 and hist.min == 2e-6 and hist.max == 3e-6


def test_address_hash_is_computed_once():
    """``hash(addr)`` after construction encodes and checksums nothing."""
    from repro.na import Address

    addr = Address.make("nid00003", "colza-7")
    called, _ = _profiled_entries(lambda: [hash(addr), {addr: 1}[addr], addr in {addr}])
    assert "__hash__" in called
    assert not any("crc32" in name or "encode" in name for name in called), called
    assert hash(addr) == hash(Address(addr.uri))


def test_run_makes_one_queue_call_per_event():
    """``Simulation.run`` drains through ``EventQueue.pop_until`` alone:
    no peek-then-pop pair, so drain-side queue calls <= events popped
    (plus the one call that finds the queue empty)."""
    sim = Simulation(seed=2)

    def ticker(n):
        for _ in range(n):
            yield sim.timeout(0.5)

    for _ in range(8):
        sim.spawn(ticker(25))
    sim.timeout(3.0).cancel()  # a tombstone to skip on the way
    _, by_file = _profiled_entries(sim.run)
    queue_calls = by_file["equeue.py"]
    drain = sum(queue_calls.get(name, 0) for name in ("pop", "pop_until", "peek_when", "frontier", "take"))
    popped = sim.queue_stats()["pops"]
    assert popped >= 8 * 25
    assert 0 < drain <= popped + 1, (drain, popped)


def test_succeed_without_waiters_schedules_nothing():
    """Most message-completion events are fired with nobody waiting yet
    (or ever): that must cost one call and no queue entry."""
    sim = Simulation(seed=3)
    ev = sim.event("nobody-waits")
    pushes = sim.queue_stats()["pushes"]
    noop_calls, _ = _profiled_calls(lambda: None)
    calls, _ = _profiled_calls(ev.succeed, 1)
    assert calls == noop_calls  # succeed itself and nothing under it
    assert sim.queue_stats()["pushes"] == pushes and sim.queue_depth == 0
    assert ev.ok and ev.value == 1


# ---------------------------------------------------------------------------
# vtk kernels: work is batched over fragments / table slots, so the number
# of Python-level calls does not follow the triangle count
def _profiled_calls(fn, *args, **kwargs):
    """Python and C function calls made while ``fn`` runs (exact)."""
    import cProfile
    import pstats

    profile = cProfile.Profile()
    result = profile.runcall(fn, *args, **kwargs)
    return pstats.Stats(profile).total_calls, result


def _profiled_entries(fn, *args):
    """Calls made while ``fn`` runs: ``{function name: calls}`` over
    Python and C functions, and the Python ones again grouped by source
    file, ``{basename: {name: calls}}``."""
    import cProfile
    import os

    profile = cProfile.Profile()
    profile.runcall(fn, *args)
    names, by_file = {}, {}
    for entry in profile.getstats():
        if isinstance(entry.code, str):  # a C function: "<built-in method zlib.crc32>"
            names[entry.code] = names.get(entry.code, 0) + entry.callcount
        else:
            name = entry.code.co_name
            names[name] = names.get(name, 0) + entry.callcount
            per_file = by_file.setdefault(os.path.basename(entry.code.co_filename), {})
            per_file[name] = per_file.get(name, 0) + entry.callcount
    return names, by_file


def _sphere_volume(n):
    from repro.vtk import ImageData

    image = ImageData(dims=(n, n, n), origin=(-1.0,) * 3, spacing=(2.0 / (n - 1),) * 3)
    image.set_field("r", np.linalg.norm(image.point_coords(), axis=1).reshape(n, n, n))
    image.set_field("x", image.point_coords()[:, 0].reshape(n, n, n))
    return image


def test_contour_calls_do_not_scale_with_triangles():
    """No loop over tets, cases or edges: 4x the triangles, same calls."""
    from repro.vtk.filters import contour

    def run(n):
        return _profiled_calls(contour, _sphere_volume(n), [0.5, 0.8], "r", interpolate_fields=["x"])

    (small_calls, small), (large_calls, large) = run(12), run(23)
    assert large.num_triangles >= 3.5 * small.num_triangles > 0
    assert large_calls <= 1.5 * small_calls, (small_calls, large_calls)


def test_rasterize_calls_do_not_scale_with_triangles():
    """No loop over triangles: the same surface meshed 4x finer costs at
    most a few more calls (a depth-peeling round, a fragment batch)."""
    from repro.vtk.filters import contour
    from repro.vtk.render import Camera, rasterize

    camera = Camera.fit((-1.0, 1.0) * 3)

    def run(n):
        surface = contour(_sphere_volume(n), [0.5, 0.8], "r", interpolate_fields=["x"])
        calls, image = _profiled_calls(rasterize, surface, camera, 64, 64, color_field="x")
        assert image.coverage() > 0.3
        return calls, surface.num_triangles

    (small_calls, small), (large_calls, large) = run(12), run(23)
    assert large >= 3.5 * small > 0
    assert large_calls <= 1.5 * small_calls, (small_calls, large_calls)


def test_resample_calls_do_not_follow_mesh_points():
    """No per-point Python: a mesh's point x stencil-voxel pairs go
    through the stencil in one chunk (up to ``_PAIR_BUDGET``), so 3 000
    mesh points cost the profiled calls 300 do."""
    from repro.vtk import UnstructuredGrid
    from repro.vtk.filters import resample_to_image

    def run(n):
        points = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 3))
        mesh = UnstructuredGrid(points, np.zeros((0, 4), dtype=np.int64),
                                point_data={"r": np.linalg.norm(points, axis=1)})
        calls, image = _profiled_calls(resample_to_image, mesh, (24, 24, 24))
        return calls, np.count_nonzero(image.field("r"))

    (small_calls, small), (large_calls, large) = run(300), run(3000)
    assert large > small > 0
    assert large_calls == small_calls, (small_calls, large_calls)


def test_volume_render_samples_the_footprint_only(monkeypatch):
    """Rays that cannot meet the brick are never marched: a brick over
    the middle quarter of the frame costs about a quarter of the
    ``H * W * steps`` samples the whole-frame loop takes (plus a pixel
    of padding all round)."""
    import repro.vtk.render.volume as volume_module
    from repro.vtk.render import Camera, volume_render

    sampled = []

    def counting(volume, coordinates):
        sampled.append(np.shape(coordinates)[1])
        return real(volume, coordinates)

    real = volume_module.sample_linear
    monkeypatch.setattr(volume_module, "sample_linear", counting)
    brick = _sphere_volume(16)  # bounds (-1, 1): half of the 4 x 4 window each way
    camera = Camera(position=(0.0, 0.0, -5.0), view_width=4.0, view_height=4.0)
    image = volume_render(brick, "r", camera=camera, width=64, height=64, steps=64)
    assert 0.2 < image.coverage() <= 0.25
    assert sum(sampled) <= 0.35 * 64 * 64 * 64, sum(sampled)
    assert max(sampled) <= volume_module._SAMPLE_BUDGET


def test_volume_render_calls_do_not_follow_steps():
    """No per-step Python: a chunk of rays costs the same calls however
    many steps it holds, so the call total stays under a quarter of the
    per-step loop's (which makes ~70 calls a step)."""
    from repro.vtk.render import volume_render
    from tests.oracles.vtk_loops import volume_render_loop

    brick = _sphere_volume(16)
    for steps in (64, 256):
        calls, image = _profiled_calls(volume_render, brick, "r", width=64, height=64, steps=steps)
        loop_calls, loop_image = _profiled_calls(volume_render_loop, brick, "r", width=64, height=64, steps=steps)
        assert image.rgba.tobytes() == loop_image.rgba.tobytes() and image.coverage() > 0.5
        assert calls <= 0.25 * loop_calls, (steps, calls, loop_calls)


# ---------------------------------------------------------------------------
# the volume path is occupancy-first: sampled and queried where the mesh is
def _dwi_brick_scene(seed=1, snapshot=20, server=0):
    """One server's share of ``bench_e2e``'s ``dwi_volume_real`` (its
    generator, sizes and camera): the merged mesh, and the camera on the
    bounds of all sixteen partitions."""
    from repro.apps import DWIDataset
    from repro.vtk import MultiBlockDataSet
    from repro.vtk.filters import merge_blocks
    from repro.vtk.render import Camera

    dataset = DWIDataset(partitions=16, seed=seed)
    blocks = [dataset.real_file(snapshot, p, scale=3e4) for p in range(16)]
    camera = Camera.fit(merge_blocks(MultiBlockDataSet(blocks)).bounds)
    return merge_blocks(MultiBlockDataSet(blocks[server::4])), camera


def test_volume_path_samples_and_queries_where_the_mesh_is(monkeypatch):
    """A resampled DWI brick is ~90 % exterior zeros. Of the samples in
    the brick's footprint (the pixel rectangle round its projected
    corners, all steps — what the kernel marched before it looked at
    occupancy) under a fifth reach the sampler, hardly more than turn
    out opaque; under 55 % of the footprint's rays are marched at all;
    and under 30 % of the voxels are candidates of the resample stencil
    (in some mesh point's cutoff box). (Measured: 11.5 % of the
    footprint's samples, 1.16 x the opaque ones; 43 % of its rays; 8.6 %
    of the voxels, 1.09 x those within the cutoff.)"""
    import repro.vtk.filters.resample as resample_module
    import repro.vtk.render.volume as volume_module
    from repro.vtk.filters import resample_to_image
    from repro.vtk.occupancy import box_union
    from repro.vtk.render import volume_render

    size, steps, dims = 128, 64, (32, 32, 32)
    counts = {"coordinates": 0, "opaque": 0, "rays": 0}
    real_sample, real_ramp, real_union = (
        volume_module.sample_linear, volume_module.opacity_ramp, volume_module.box_union
    )

    def counting_sample(volume, coordinates):
        counts["coordinates"] += np.shape(coordinates)[1]
        return real_sample(volume, coordinates)

    def counting_ramp(values, *args):
        ramp = real_ramp(values, *args)
        if ramp.ndim == 1:  # a chunk's samples, not the lattice
            counts["opaque"] += int((np.isfinite(values) & (ramp * (16 / (steps - 1)) > 1e-4)).sum())
        return ramp

    def counting_union(lo, hi, shape):
        mask = real_union(lo, hi, shape)
        counts["rays"] += int(mask.sum())
        return mask

    monkeypatch.setattr(volume_module, "sample_linear", counting_sample)
    monkeypatch.setattr(volume_module, "opacity_ramp", counting_ramp)
    monkeypatch.setattr(volume_module, "box_union", counting_union)
    mesh, camera = _dwi_brick_scene()
    brick = resample_to_image(mesh, dims, fields=["velocity"])
    image = volume_render(brick, "velocity", camera=camera, width=size, height=size, steps=steps)
    cutoff = 2.0 * float(np.mean(brick.spacing))
    first, last = resample_module.cutoff_boxes(mesh.points, brick.origin, brick.spacing, cutoff, dims)
    candidates = int(box_union(first, last - 1, dims).sum())

    b = brick.bounds
    corners = np.array([(b[i], b[2 + j], b[4 + k]) for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    px, py, _ = camera.view_to_pixels(camera.world_to_view(corners), size, size)
    footprint_rays = (np.floor(px.max()) - np.ceil(px.min()) + 1) * (np.floor(py.max()) - np.ceil(py.min()) + 1)
    assert 0.2 * size * size < footprint_rays < size * size and 0.05 < image.coverage() < 0.5
    assert np.isfinite(image.depth).sum() <= counts["rays"] <= 0.55 * footprint_rays, (counts, footprint_rays)
    assert counts["coordinates"] <= 0.20 * footprint_rays * steps, (counts, footprint_rays)
    assert 0 < counts["opaque"] <= counts["coordinates"] <= 1.25 * counts["opaque"], counts
    inside = np.count_nonzero(brick.field("velocity"))
    assert 0 < inside <= candidates <= 0.30 * brick.num_points, (counts, candidates, inside)


def test_volume_path_makes_no_more_calls_than_before_it_skipped():
    """The occupancy tests are extra work per render and per resample,
    and ``py_calls_m`` is an end-to-end metric: one render plus one
    resample of this brick made 1 557 profiled calls before the skip
    (``np.clip``, ``np.flatnonzero`` and twelve camera property reads per
    chunk of rays) and must not make more with it — 893 measured: ufuncs
    called directly, the view basis read once, fewer rays in fewer
    chunks; 860 with the NumPy sampler and the resample stencil."""
    from repro.vtk.filters import resample_to_image
    from repro.vtk.render import volume_render

    mesh, camera = _dwi_brick_scene()

    def both():
        brick = resample_to_image(mesh, (32, 32, 32), fields=["velocity"])
        return volume_render(brick, "velocity", camera=camera, width=128, height=128)

    calls, image = _profiled_calls(both)
    assert image.coverage() > 0.05
    assert calls <= 1557, calls


# ---------------------------------------------------------------------------
# the image path pays for active pixels: no-op combines share, frames with
# nothing in them have no storage, the rasteriser's compression is free of calls
def test_combine_that_takes_no_pixel_shares_its_first_arguments_buffers(monkeypatch):
    """Every z-buffer combine of a virtual-block run and about half of
    those on rendered iso-surfaces take nothing: that costs one depth
    comparison and no new frame. A combine that does take pixels makes
    one choice per pixel, not one per channel."""
    from repro.vtk.render.image import CompositeImage, combine_zbuffer

    rng = np.random.default_rng(5)
    a, b = CompositeImage.blank(64, 48, brick_depth=1.0), CompositeImage.blank(64, 48)
    a.depth[:], b.depth[:] = 1.0 + rng.random((48, 64)), 3.0 + rng.random((48, 64))
    for behind in (b, CompositeImage.empty(64, 48), a):  # farther, nothing there, all ties
        result = combine_zbuffer(a, behind)
        assert np.shares_memory(result.depth, a.depth) and np.shares_memory(result.rgba, a.rgba)
        assert result is not a and result.brick_depth == min(a.brick_depth, behind.brick_depth)
    part = combine_zbuffer(a.rows(5, 20), b.rows(5, 20))  # fragments of a swap round too
    assert np.shares_memory(part.depth, a.depth) and part.shape == (15, 64)

    b.depth[7, 9] = 0.5
    chosen = []
    real_where = np.where

    def counting_where(condition, x, y):
        chosen.append(np.broadcast(condition, x, y).size)
        return real_where(condition, x, y)

    monkeypatch.setattr(np, "where", counting_where)
    result = combine_zbuffer(a, b)
    monkeypatch.undo()
    assert not np.shares_memory(result.depth, a.depth) and result.depth[7, 9] == 0.5
    assert sorted(chosen) == [48 * 64, 48 * 64], chosen  # pixels and depths; channels ride along


def test_binary_swap_of_empty_frames_allocates_one_frame():
    """Eight ranks with nothing to draw (every rank of a virtual-block
    run): the local frames have no storage and no combine takes a pixel,
    so the swap's only frame-sized allocation is the image the root
    assembles — the peak stays under two frames' bytes, where zero-filled
    frames and allocating combines held more than eight."""
    import tracemalloc

    from repro.icet import MonaIceTCommunicator, binary_swap
    from repro.testing import build_mona_world, run_all
    from repro.vtk.render.image import CompositeImage

    size, ranks = 256, 8
    blank = CompositeImage.blank(size, size)
    frame_bytes = blank.rgba.nbytes + blank.depth.nbytes  # storage, not the wire size
    sim = Simulation(seed=4)
    _, _, comms = build_mona_world(sim, ranks)

    def body(comm, rank):
        frame = CompositeImage.empty(size, size, brick_depth=float(rank))
        return (yield from binary_swap(MonaIceTCommunicator(comm), frame, op="zbuffer"))

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        final, *others = run_all(sim, [body(c, r) for r, c in enumerate(comms)])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert final.shape == (size, size) and final.coverage() == 0.0
    assert final.rgba.nbytes + final.depth.nbytes == frame_bytes
    assert final.rgba.flags.writeable and all(o is None for o in others)
    assert frame_bytes <= peak < 2 * frame_bytes, (peak, frame_bytes)


def test_pricing_a_frame_takes_a_fixed_number_of_calls(monkeypatch):
    """``payload_nbytes`` reads a frame's wire size once per message that
    carries it. An ``empty()`` frame (every rank of a virtual-block run)
    is priced from its strides, without a NumPy call; a rendered 256 x 128
    fragment takes the same ten calls (12 allowed) whether it holds one
    run or 16 384: no Python loop over rows or runs."""
    from repro.vtk.render.image import CompositeImage

    empty = CompositeImage.empty(256, 256)
    part = empty.rows(64, 192)

    def numpy_called(*args, **kwargs):
        raise AssertionError("NumPy called to price an empty frame")

    monkeypatch.setattr(np, "isfinite", numpy_called)
    monkeypatch.setattr(np, "count_nonzero", numpy_called)
    for frame in (empty, part):
        calls, size = _profiled_calls(lambda: frame.nbytes)
        assert size == 36 and calls <= 4, calls
    monkeypatch.undo()

    rng = np.random.default_rng(2)
    masks = {
        "no run": np.zeros((128, 256), dtype=bool),
        "one run": np.arange(128 * 256).reshape(128, 256) // 4096 == 3,
        "random": rng.random((128, 256)) < 0.5,
        "checkerboard": np.indices((128, 256)).sum(axis=0) % 2 == 0,
    }
    calls = {}
    for name, mask in masks.items():
        frame = CompositeImage.blank(256, 128)
        frame.depth[mask] = 1.0
        calls[name], _ = _profiled_calls(lambda: frame.nbytes)
    assert max(calls.values()) <= 12 and len(set(calls.values())) == 1, calls


def test_scripts_with_nothing_to_draw_hand_the_compositor_a_frame_without_storage(monkeypatch):
    """Virtual blocks (every paper-scale run) and servers whose blocks
    miss the iso-levels: the local frame declares a blank frame's wire
    size (a sparse-image header and one run) and occupies one pixel."""
    from repro.bench.harness import ColzaExperiment
    from repro.catalyst.script import RenderContext
    from repro.core.pipelines import DWIVolumeScript, IsoSurfaceScript
    from repro.na import VirtualPayload
    from repro.vtk.render.image import CompositeImage

    handed = []
    real_composite = RenderContext.composite

    def recording(self, image, op="zbuffer"):
        handed.append(image)
        return (yield from real_composite(self, image, op=op))

    monkeypatch.setattr(RenderContext, "composite", recording)
    cold = _sphere_volume(6)  # r <= sqrt(3): an iso-level of 9 misses it
    cases = [
        (IsoSurfaceScript(field="r", isovalues=[9.0]), "libcolza-iso.so", VirtualPayload((16, 16, 15), "int32")),
        (IsoSurfaceScript(field="r", isovalues=[9.0]), "libcolza-iso.so", cold),
        (DWIVolumeScript(), "libcolza-dwi.so", VirtualPayload((4096,), "uint8")),
    ]
    for script, library, payload in cases:
        del handed[:]
        exp = ColzaExperiment(2, 2, script, seed=9, width=48, height=32, library=library).setup()
        exp.run_iteration(1, [[(c, payload)] for c in range(2)])
        assert len(handed) == 2
        for rank, frame in enumerate(sorted(handed, key=lambda im: im.brick_depth)):
            assert frame.depth.strides == (0, 0) and frame.rgba.strides[:2] == (0, 0)
            assert not frame.depth.flags.writeable and frame.brick_depth == float(rank)
            assert frame.nbytes == CompositeImage.blank(48, 32).nbytes and frame.coverage() == 0.0


def _gray_scott_server_surface(seed=1, server=0):
    """One server's share of ``bench_e2e``'s ``gs_iso_real`` at its last
    iteration (its generator, grid, iso-levels, clip and camera): the
    clipped two-level surface of blocks ``server, server + 4`` of eight."""
    from repro.apps import GrayScottParams, GrayScottSolver
    from repro.vtk import ImageData, PolyData
    from repro.vtk.filters import clip_polydata, contour
    from repro.vtk.render import Camera

    g, half = 32, 16
    solver = GrayScottSolver((g, g, g), params=GrayScottParams(seed=seed, F=0.03, k=0.055, dt=2.0, noise=0.02))
    for _ in range(90 + 6 * 10):
        solver.step_local()
    v = solver.v[1:-1, 1:-1, 1:-1]
    ranges = [(0, half + 1), (half, g)]
    corners = [(x, y, z) for x in ranges for y in ranges for z in ranges]
    pieces = []
    for (x0, x1), (y0, y1), (z0, z1) in corners[server::4]:
        block = ImageData(dims=(x1 - x0, y1 - y0, z1 - z0), origin=(float(x0), float(y0), float(z0)))
        block.set_field("v", v[x0:x1, y0:y1, z0:z1].copy())
        piece = clip_polydata(contour(block, [0.12, 0.25], "v"), (float(half), 0.0, 0.0), (1.0, 0.0, 0.0))
        if piece.num_points:
            pieces.append(piece)
    return PolyData.concatenate(pieces), Camera.fit((g / 4, 3 * g / 4) * 3)


def test_rasterize_makes_no_more_calls_than_before_it_compressed():
    """``py_calls_m`` is an end-to-end metric: evaluating depth and pixel
    on the inside fragments only must not be paid for in Python-level
    calls per batch. One render of a server's Gray-Scott surface made
    382 profiled calls before and may make 1 % more — 372 measured (the
    compression is index expressions, and ``ndarray.nonzero`` replaces
    ``np.flatnonzero``'s three calls)."""
    from repro.vtk.render import rasterize

    surface, camera = _gray_scott_server_surface()
    calls, image = _profiled_calls(
        rasterize, surface, camera, 256, 256, color_field="v", value_range=(0.12, 0.25)
    )
    assert surface.num_triangles > 1000 and image.coverage() > 0.05
    assert calls <= 1.01 * 382, calls


# ---------------------------------------------------------------------------
# start-up: a run pays for the libraries it uses
def _in_a_fresh_interpreter(code):
    """Run ``code`` in a child with this process's import path (so
    ``sys.modules`` starts clean); returns what it printed, as JSON."""
    import json
    import os
    import subprocess
    import sys
    import textwrap

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    child = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


_ON_FIRST_USE = (
    "repro.analysis.detlint", "repro.analysis.flowcheck", "repro.analysis.report",
    "pytest",
)


def test_importing_the_stack_loads_neither_scipy_nor_the_static_analysers():
    """SciPy is the tests' and the benchmark's, not the stack's: importing
    the stack, the bench harness and the pipelines, deploying a
    ``DWIVolumeScript`` and resampling and rendering one brick loads no
    ``scipy*`` module. The ``ast``-based analysers are ``make check``'s
    and load with the first attribute read off ``repro.analysis``."""
    loaded = _in_a_fresh_interpreter(f"""
        import json, sys
        import numpy as np
        import repro.core, repro.bench.harness, repro.core.pipelines
        from repro.analysis.simtsan import Shared
        from repro.vtk import UnstructuredGrid
        from repro.vtk.filters import resample_to_image
        from repro.vtk.render import volume_render

        names = {_ON_FIRST_USE!r}
        after_import = [name for name in names if name in sys.modules]
        repro.core.pipelines.DWIVolumeScript()
        points = np.random.default_rng(3).uniform(-1.0, 1.0, (200, 3))
        mesh = UnstructuredGrid(points, np.arange(200).reshape(50, 4),
                                point_data={{"r": np.linalg.norm(points, axis=1)}})
        image = volume_render(resample_to_image(mesh, (12, 12, 12)), "r", width=24, height=24, steps=12)
        print(json.dumps([after_import, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
                          image.coverage() > 0]))
    """)
    assert loaded == [[], [], True]
