"""The perf trajectory: pinned-seed scenes whose rows are exact.

Each scene drives one fast path — raw event throughput, timer
cancellation and compaction, SWIM churn at 256 and 4096 members, MoNA
reduce at large fan-in, the SLO controller under two load traces — and
returns only what repeats exactly for :data:`SEED`: op counts (events
scheduled/processed, cancels, probes, view rebuilds, peak queue depth)
and product counts (SLO misses, resizes). No wall clock: host cost is
``bench_e2e``'s, judged by its paired A/B tool.

``tests/test_perf_budgets.py`` pins every scene's whole row in an
inline table and compares for equality; a moved count is re-pinned by
hand, with its reason next to the new row.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

import numpy as np

#: Pinned seed for every scene — op counts must be reproducible.
SEED = 1234


def scene_kernel_events() -> Dict[str, Any]:
    """Raw event throughput: timer storms + one bulk schedule_many."""
    from repro.sim import Simulation

    sim = Simulation(seed=SEED)
    rng = sim.rng.stream("bench.kernel_events")

    n_tasks, n_waits = 100, 200

    def chatter(delays):
        for d in delays:
            yield sim.timeout(d)

    for t in range(n_tasks):
        delays = rng.random(n_waits) * 10.0 + 1e-6
        sim.spawn(chatter(list(delays)), name=f"chatter-{t}")

    # Bulk path: one O(n + m) heapify instead of m sift-ups.
    fired = []
    batch = [(float(w), fired.append, i) for i, w in enumerate(rng.random(20_000) * 10.0)]
    sim.schedule_many(batch, relative=True)

    sim.run()
    stats = sim.queue_stats()
    return {
        "events_scheduled": stats["pushes"],
        "events_processed": stats["pops"],
        "peak_queue_depth": stats["peak_depth"],
        "bulk_fired": len(fired),
    }


def scene_kernel_cancel() -> Dict[str, Any]:
    """Cancellation fast path: most timers are withdrawn, tombstones
    must compact instead of accumulating."""
    from repro.sim import Simulation

    sim = Simulation(seed=SEED)
    rng = sim.rng.stream("bench.kernel_cancel")

    n_timers, keep_every = 30_000, 5
    delays = rng.random(n_timers) * 100.0 + 1e-6

    def driver():
        timers = [sim.timeout(float(d)) for d in delays]
        # Cancel 80% immediately (lost races), in schedule order.
        for i, ev in enumerate(timers):
            if i % keep_every:
                ev.cancel()
        yield sim.timeout(0)

    sim.spawn(driver(), name="canceler")
    sim.run()
    stats = sim.queue_stats()
    return {
        "events_scheduled": stats["pushes"],
        "events_processed": stats["pops"],
        "cancels": stats["cancels"],
        "compactions": stats["compactions"],
        "tombstones_left": stats["tombstones"],
        "peak_queue_depth": stats["peak_depth"],
    }


def build_swim_churn(
    n_members: int,
    seed: int = SEED,
    active: int = 32,
    spares: int = 64,
):
    """Bring up the sampled SWIM-churn topology (see scene_swim_churn).

    Returns ``(sim, agents)`` with the churn driver already spawned;
    the caller runs the simulation and reads the counters.
    """
    from repro.sim import Simulation
    from repro.ssg import GroupFile, SSGAgent
    from repro.ssg.view import Status, Update
    from repro.testing import build_margo_ring, drive

    active = min(active, n_members)
    sim = Simulation(seed=seed)
    sim.trace.enabled = False  # measure protocol cost, not span volume

    n_echo = n_members - active
    fabric, margos = build_margo_ring(
        sim, active + n_echo + spares, procs_per_node=4, name_prefix="swim"
    )
    group_file = GroupFile()

    # Active agents run the full SWIM loop; echo members answer pings
    # (their SSG provider is exported at construction) but never start,
    # so 4096 full N x N views are never materialized — only the active
    # sample pays the per-probe view costs being measured.
    agents = [SSGAgent(m, group_file) for m in margos[:active]]
    echoes = [SSGAgent(m, group_file) for m in margos[active:]]
    echo_addrs = [a.address for a in echoes[:n_echo]]
    spare_addrs = [a.address for a in echoes[n_echo:]]

    for agent in agents:
        drive(sim, agent.start())
    # Pre-seed full-size views, in sorted order so incremental caches
    # append instead of shifting (and pre-cache sizes match reality).
    for agent in agents:
        for addr in sorted(echo_addrs):
            agent.view.apply(Update(Status.ALIVE, addr, 0))

    def churn(period: float = 0.25):
        # One leave + one join injected per period, disseminated by the
        # protocol itself (piggyback path under a full-size outbox).
        leaving = list(sorted(echo_addrs))
        joining = list(sorted(spare_addrs))
        i = 0
        while True:
            yield sim.timeout(period)
            target = agents[i % len(agents)]
            gone = leaving[i % len(leaving)]
            fresh = joining[i % len(joining)]
            target._apply_and_notify(Update(Status.DEAD, gone, i))
            target._apply_and_notify(Update(Status.ALIVE, fresh, i))
            i += 1

    sim.spawn(churn(), name="churn-driver")
    return sim, agents


def scene_swim_churn(n_members: int) -> Dict[str, Any]:
    """SWIM churn at scale: 32 active agents holding ``n_members``-sized
    views, echo members answering pings, continuous join/leave churn.
    Per-period work is O(active agents): the events barely grow with
    the view, and the views never rebuild."""
    sim, agents = build_swim_churn(n_members)
    sim.run(until=sim.now + 15.0)
    stats = sim.queue_stats()
    probes = sim.metrics.get("ssg.probes")
    return {
        "events_scheduled": stats["pushes"],
        "events_processed": stats["pops"],
        "cancels": stats["cancels"],
        "peak_queue_depth": stats["peak_depth"],
        "probes": int(probes.value) if probes else 0,
        "view_rebuilds": sum(a.view.rebuilds for a in agents),
        "view_total_size": sum(a.view.size() for a in agents),
    }


def scene_mona_reduce() -> Dict[str, Any]:
    """MoNA reduce at large fan-in, real ndarrays: binary + binomial
    trees back to back; the combine bodies fold in place."""
    from repro.sim import Simulation
    from repro.mona.ops import SUM
    from repro.testing import build_mona_world, run_all

    ranks, elems = 128, 32_768
    sim = Simulation(seed=SEED)
    sim.trace.enabled = False
    fabric, instances, comms = build_mona_world(sim, ranks, procs_per_node=8)
    rng = sim.rng.stream("bench.mona_reduce")
    payloads = [
        (rng.random(elems) * (r + 1)).astype(np.float64) for r in range(ranks)
    ]

    binary = run_all(
        sim, [c.reduce(p, op=SUM, root=0) for c, p in zip(comms, payloads)]
    )
    binomial = run_all(
        sim,
        [c.reduce(p, op=SUM, root=0, algorithm="binomial") for c, p in zip(comms, payloads)],
    )
    stats = sim.queue_stats()
    return {
        "events_scheduled": stats["pushes"],
        "events_processed": stats["pops"],
        "reduce_checksum": float(binary[0].sum()) + float(binomial[0].sum()),
        "trees_bit_identical": bool(np.array_equal(binary[0], binomial[0])),
    }


def scene_autoscale_trace(shape: str) -> Dict[str, Any]:
    """The closed-loop SLO controller under one pinned load trace:
    miss and resize counts are the product metrics (DESIGN §16) — a
    moved row means the controller started missing deadlines it used to
    meet, or thrashing where it used to hold."""
    from repro.bench.experiments.autoscale_slo import _run_regime
    from repro.bench.loadtraces import trace

    kwargs = {"burst": 6.0} if shape == "bursty" else {}
    loads = trace(shape, 12, seed=23, **kwargs)
    m = _run_regime("slo", "grayscott", loads, 4, 23)
    return {
        key: int(m[key])
        for key in ("slo_misses", "resizes", "resize_failures", "final_servers")
    }


#: Scene registry: name -> runner returning the scene's row.
SCENES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "kernel_events": scene_kernel_events,
    "kernel_cancel": scene_kernel_cancel,
    "swim_churn_256": lambda: scene_swim_churn(256),
    "swim_churn_4096": lambda: scene_swim_churn(4096),
    "mona_reduce": scene_mona_reduce,
    "autoscale_bursty": lambda: scene_autoscale_trace("bursty"),
    "autoscale_adversarial": lambda: scene_autoscale_trace("adversarial"),
}
