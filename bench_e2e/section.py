"""One repetition of one workload, run inside its own process.

``run_section`` builds the workload, runs its timed section and returns
a plain-dict *record*: host times, simulated times, counters, digests
and the facts the output checks judge. Three modes:

- ``timed`` — nothing attached; the only mode whose CPU times and RSS
  are reported as end-to-end metrics;
- ``counted`` — the timed section runs under ``cProfile`` and only the
  total call count is read (it repeats exactly for a given seed);
- ``traced`` — the layer sampler runs from the start, and the finished
  run is pushed through ``telemetry_report`` / ``write_chrome_trace``.

``counted`` and ``traced`` sections also do the extra work some output
checks need (the 1-server oracle render), so no timed section pays it.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import os
import resource
import statistics
import time
import traceback
from typing import Any, Dict, List, Optional

import numpy as np

from repro.telemetry import telemetry_report, write_chrome_trace

from bench_e2e.trace import TIMED_PHASES, LayerSampler, PhaseRecorder
from bench_e2e.workloads import WORKLOADS, Workload

__all__ = ["MODES", "run_section", "speed_probe"]

MODES = ("timed", "counted", "traced")

#: per-layer metric -> (name in ``sim.metrics.snapshot()``, field read).
_COUNTERS = {
    "icet.composites": ("icet.composites", "value"),
    "na.messages": ("na.messages_sent", "value"),
    "na.bytes": ("na.bytes_sent", "value"),
    "na.rdma_ops": ("na.rdma_seconds", "count"),
    "na.sim_rdma_s": ("na.rdma_seconds", "total"),
    "na.sim_transit_s": ("na.send_transit_seconds", "total"),
    "margo.sim_compute_s": ("margo.compute_seconds", "total"),
    "ssg.probes": ("ssg.probes", "value"),
    "ssg.members_joined": ("ssg.members_joined", "value"),
    "mona.collectives": ("mona.collectives", "value"),
    "mona.sim_collective_s": ("mona.collective_seconds", "total"),
    "core.blocks_staged": ("core.blocks_staged", "value"),
    "core.bytes_staged": ("core.bytes_staged", "value"),
    "core.activations_committed": ("core.activations_committed", "value"),
}
#: Created on first use inside ``repro``: present only where replication
#: and recovery run (the first four) or only when the event happens.
_REPLICATION_COUNTERS = {
    "core.blocks_replicated": ("core.blocks_replicated", "value"),
    "core.replica_bytes": ("core.replica_bytes", "value"),
    "core.blocks_recovered": ("core.blocks_recovered", "value"),
    "core.iteration_retries": ("core.iteration_retries", "value"),
}
_RARE_COUNTERS = {
    "core.restage_fallbacks": ("core.restage_fallbacks", "value"),
    "core.quota_stalls": ("core.quota_stalls", "value"),
}


def _read_counters(wl: Workload, warnings: Optional[List[str]]) -> Dict[str, Optional[float]]:
    """Counter values now, through public read-only APIs only.

    ``repro`` creates a counter on first use. Before the timed section
    (``warnings=None``) an absent one therefore reads 0; after it, a
    name that should exist and does not reads ``None`` with a warning —
    it was renamed or removed, and the metric must not silently read 0.
    """
    snapshot = wl.sim.metrics.snapshot()
    out: Dict[str, Optional[float]] = {}

    def read(table: Dict[str, Any], required: bool) -> None:
        for metric, (name, field) in table.items():
            entry = snapshot.get(name)
            if entry is not None and field in entry:
                out[metric] = float(entry[field])
            elif required and warnings is not None:
                out[metric] = None
                warnings.append(f"{metric}: {name!r}.{field} not in sim.metrics.snapshot()")
            else:
                out[metric] = 0.0

    read(_COUNTERS, True)
    read(_REPLICATION_COUNTERS, wl.replication_factor > 1)
    read(_RARE_COUNTERS, False)
    queue = wl.sim.queue_stats()
    for metric, key in (("sim.events", "pops"), ("sim.cancels", "cancels"),
                        ("sim.peak_queue_depth", "peak_depth")):
        out[metric] = float(queue[key]) if key in queue else None
        if key not in queue and warnings is not None:
            warnings.append(f"{metric}: {key!r} not in Simulation.queue_stats()")
    return out


def _delta(after: Dict[str, Optional[float]], before: Dict[str, Optional[float]]) -> Dict[str, Optional[float]]:
    out: Dict[str, Optional[float]] = {}
    for name, value in after.items():
        start = before.get(name)
        out[name] = None if value is None or start is None else value - start
    # A high-water mark, not a counter.
    out["sim.peak_queue_depth"] = after.get("sim.peak_queue_depth")
    return out


def _span_metrics(spans: List[Any]) -> Dict[str, Any]:
    """Simulated-time metrics from the spans begun in the timed section."""
    by_name: Dict[str, List[Any]] = {}
    for span in spans:
        if span.end is not None:
            by_name.setdefault(span.name, []).append(span)

    def durations(name: str) -> List[float]:
        return [s.duration for s in by_name.get(name, ())]

    out: Dict[str, Any] = {
        "telemetry.spans": len(spans),
        "mercury.rpcs": len(by_name.get("hg.forward", ())),
        "icet.sim_composite_s": sum(
            s.duration for name, group in by_name.items() if name.startswith("icet.") for s in group
        ),
    }
    # Failed attempts of a resilient iteration end with an error tag; an
    # iteration the user sees is one that completed.
    iterations = [s for s in by_name.get("colza.iteration", ()) if "error" not in s.tags]
    if not iterations:
        return out
    # median_low: an iteration that actually ran, so its four phases
    # below add up to it exactly.
    median = statistics.median_low(s.duration for s in iterations)
    typical = next(s for s in iterations if s.duration == median)
    phases = {"colza.activate": 0.0, "colza.execute": 0.0, "colza.deactivate": 0.0}
    for span in spans:
        if span.parent == typical.id and span.name in phases and span.end is not None:
            phases[span.name] = span.duration
    out.update({
        "sim_iter_s": median,
        "sim_execute_s": statistics.median(durations("colza.execute")),
        # mean, not median: the median is blind to all but the middle block
        "sim_stage_s": statistics.mean(durations("colza.stage")),
        "core.sim_activate_s": phases["colza.activate"],
        "core.sim_execute_s": phases["colza.execute"],
        "core.sim_deactivate_s": phases["colza.deactivate"],
        # The staging window: what is left of the iteration.
        "core.sim_stage_s": median - sum(phases.values()),
    })
    return out


def speed_probe() -> float:
    """CPU seconds of a fixed mix of interpreter, allocator and NumPy
    work that touches nothing under ``repro``: a reading of how fast
    this vCPU is right now (it drifts by tens of percent over minutes,
    see README). About 8 ms."""
    start = time.process_time()
    x = 0
    for i in range(60_000):
        x += i * i % 7
    # Floats and strings, not containers: the probe must not trigger the
    # cyclic GC, whose cost depends on the program's heap.
    floats = [i * 0.5 for i in range(30_000)]
    text = "".join(str(f) for f in floats[:10_000])
    a = np.arange(150_000, dtype=np.float64)
    for _ in range(4):
        a = a * 1.0001 + 0.5
    del floats, text
    return time.process_time() - start


def _image_digest(image: Any) -> str:
    h = hashlib.sha256()
    h.update(image.rgba.tobytes())
    h.update(image.depth.tobytes())
    return h.hexdigest()


def run_section(
    workload: str, seed: int, mode: str, quick: bool, imports: Dict[str, float], out_dir: str
) -> Dict[str, Any]:
    """Run one repetition; never raises for a failure inside the workload
    (the record carries ``error`` and how many operations completed)."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    phases = PhaseRecorder()
    wl: Workload = WORKLOADS[workload](seed, quick, phases)
    warnings: List[str] = []
    record: Dict[str, Any] = {
        "workload": workload, "seed": seed, "mode": mode, "quick": quick,
        "ops_planned": wl.planned_ops, "ops_done": 0, "error": None,
        "sizes": wl.sizes, "warnings": warnings,
        # The driver's interpreter start + imports, and its probe then.
        "import_cpu_s": imports["cpu_s"], "import_probe_s": imports["probe_s"],
    }
    sampler = LayerSampler(phases.current_kind) if mode == "traced" else None
    if sampler is not None:
        sampler.start()
    try:
        with phases.span("inputs"):
            wl.make_inputs()
        with phases.span("setup"):
            wl.setup()
        gc.collect()
        before = _read_counters(wl, None)
        first_span = len(wl.sim.trace.spans)
        profiler = cProfile.Profile() if mode == "counted" else None
        record["setup_cpu_s"] = time.process_time()
        # One probe pair before the first timed operation and one after each
        # (not under the profiler: the probe's calls are not the program's).
        probes = [[speed_probe(), speed_probe()]]
        if profiler is None:
            phases.on_close = lambda span: probes.append([speed_probe(), speed_probe()])
        else:
            profiler.enable()
        try:
            wl.run()
        finally:
            if profiler is not None:
                profiler.disable()
            phases.on_close = None
            record["ops_done"] = wl.ops_done
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["probe_s"] = probes
        if profiler is not None:
            record["py_calls"] = sum(entry.callcount for entry in profiler.getstats())

        counts = _delta(_read_counters(wl, warnings), before)
        counts.update(_span_metrics(wl.sim.trace.spans[first_span:]))
        counts["vtk.triangles"] = float(sum(wl.facts.get("triangles", ())))
        record["counts"] = counts
        record["wire_mb_per_iter"] = (
            None if counts["na.bytes"] is None else counts["na.bytes"] / 1e6 / wl.iterations
        )
        images = wl.final_images()
        record["image_digests"] = [_image_digest(img) for img in images]
        record["image_coverage"] = [img.coverage() for img in images]
        record["image_finite"] = all(bool(np.isfinite(img.rgba).all()) for img in images)
        record["expected"] = {
            "blocks_staged": wl.expected_blocks_staged,
            "replication_factor": wl.replication_factor,
        }

        if mode == "traced":
            with phases.span("report") as report:
                telemetry_report(wl.sim)
                write_chrome_trace(
                    wl.sim.trace, os.path.join(out_dir, f"{workload}.sim.trace.json"),
                    metrics=wl.sim.metrics,
                )
            record["report_s"] = report.cpu
        if mode != "timed":
            with phases.span("check"):
                wl.verify()
    except Exception:
        record["error"] = traceback.format_exc(limit=-12)
        record["ops_done"] = wl.ops_done
    finally:
        if sampler is not None:
            sampler.stop()

    record["facts"] = wl.facts
    record["ops"] = [
        {"kind": s.kind, "cpu_s": s.cpu, "sim_s": s.sim, **s.tags}
        for s in phases.of_kind(*TIMED_PHASES)
    ]
    record["phase_cpu_s"] = {kind: phases.cpu_of(kind) for kind in ("inputs", "setup")}
    if sampler is not None:
        record["layers"] = sampler.by_phase()
        record["traced_wall_s"] = sampler.wall_s
        record["sampler_overhead_s"] = sampler.overhead_s
        record["gc_collections"] = dict(sampler.gc_collections)
        phases.write_chrome_trace(
            os.path.join(out_dir, f"{workload}.trace.json"), layers=record["layers"]
        )
    return record
