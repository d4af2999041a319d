"""Names, units, directions and bounds of every metric the benchmark prints.

``BENCHMARK.json`` at the repo root repeats the contract part of these
tables (``test_smoke.py`` checks the two agree); ``README.md`` says
what each metric should move, on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["E2E", "E2E_CONTRACT", "Metric", "PER_LAYER", "SAMPLED_LAYERS", "WORKLOAD_NAMES"]

#: Final: later issues cite these names. ``workloads.py`` defines them.
WORKLOAD_NAMES = ("gs_iso_real", "dwi_volume_real", "mb_scale_virtual", "elastic_tenants")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline by which the metric may get worse before
    #: ``--compare`` calls it a regression (e2e metrics only). Each is at
    #: least three times the quartile spread seen over ten seeds on the
    #: workload where it is widest (README, *Bounds and seeds*).
    bound: Optional[float] = None
    #: Workloads the metric exists on (None = all). Elsewhere it reads 0.
    only: Optional[Tuple[str, ...]] = None
    #: Deterministic for a given seed: any difference between two runs
    #: of one seed is a behaviour change, not noise.
    exact: bool = False


#: The end-to-end metrics. ``failure_ratio`` is printed as
#: failed/attempted beside them; it is a count pair, not a Metric.
E2E: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_cpu_s", "s", "lower", 0.12),
    Metric("py_calls_m", "Mcalls", "lower", 0.05, exact=True),
    Metric("peak_rss_mb", "MB", "lower", 0.18),
    Metric("sim_iter_s", "s", "lower", 0.03, exact=True),
    Metric("sim_execute_s", "s", "lower", 0.16, exact=True),
    Metric("sim_stage_s", "s", "lower", 0.03, exact=True),
    Metric("wire_mb_per_iter", "MB", "lower", 0.03, exact=True),
    Metric("sim_resize_s", "s", "lower", 0.25, only=("elastic_tenants",), exact=True),
    Metric("sim_recover_s", "s", "lower", 0.25, only=("elastic_tenants",), exact=True),
]

#: The e2e metrics every workload has. The builder contract wants each
#: ``end_to_end`` metric non-zero on every workload, so the two
#: elastic-only ones are listed under ``per_layer`` in BENCHMARK.json.
E2E_CONTRACT: List[Metric] = [m for m in E2E if m.only is None]

#: Packages under ``repro.`` the sampler reports a ``<layer>.self_s`` for.
SAMPLED_LAYERS = (
    "vtk", "icet", "na", "sim", "argo", "mercury", "margo", "ssg", "mona",
    "catalyst", "core", "telemetry", "analysis", "apps", "bench", "other",
)


def _per_layer() -> List[Metric]:
    lower: Dict[str, str] = {
        # counts read from public read-only APIs after the run
        "vtk.triangles": "count",
        "icet.composites": "count", "icet.sim_composite_s": "s",
        "na.messages": "count", "na.bytes": "B", "na.rdma_ops": "count",
        "na.sim_rdma_s": "s", "na.sim_transit_s": "s",
        "sim.events": "count", "sim.cancels": "count", "sim.peak_queue_depth": "count",
        "mercury.rpcs": "count", "margo.sim_compute_s": "s",
        "ssg.probes": "count", "ssg.members_joined": "count",
        "mona.collectives": "count", "mona.sim_collective_s": "s",
        "core.blocks_staged": "count", "core.bytes_staged": "B",
        "core.activations_committed": "count", "core.blocks_replicated": "count",
        "core.replica_bytes": "B", "core.blocks_recovered": "count",
        "core.restage_fallbacks": "count", "core.iteration_retries": "count",
        "core.quota_stalls": "count",
        "core.sim_activate_s": "s", "core.sim_stage_s": "s",
        "core.sim_execute_s": "s", "core.sim_deactivate_s": "s",
        "telemetry.spans": "count", "telemetry.iter_cpu_growth": "ratio",
        "telemetry.report_s": "s",
        "py.gc_s": "s", "py.gc_collections": "count",
        "trace.overhead_ratio": "ratio",
        "phase.setup_s": "s", "phase.inputs_s": "s", "phase.iterations_s": "s",
        "phase.resize_s": "s", "phase.recover_s": "s",
    }
    metrics = [Metric(f"{layer}.self_s", "s", "lower") for layer in SAMPLED_LAYERS]
    metrics += [Metric(name, unit, "lower") for name, unit in lower.items()]
    metrics.append(Metric("sim.events_per_cpu_s", "1/s", "higher"))
    metrics += [Metric(m.name, m.unit, m.better) for m in E2E if m.only is not None]
    return metrics


PER_LAYER: List[Metric] = _per_layer()
