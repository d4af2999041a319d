"""Output checks: plain functions over the run records.

Each check looks at the finished repetitions of one workload (see
``section.run_section`` for the record layout; there is always at least
one) and returns :class:`CheckResult` rows. Every row is one attempted
operation in ``failure_ratio``; a row with ``ok=False`` is one failed
operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

__all__ = ["CheckResult", "run_checks"]

#: In-transit vs in-situ image tolerance (float32 framebuffers).
ORACLE_ATOL = 1e-6
#: Post-clip triangles per gs_iso_real iteration at the committed sizes.
GS_TRIANGLE_BAND = (2000, 10000)
GS_MIN_COVERAGE = 0.05
DWI_COVERAGE_BAND = (0.2, 0.9)

Record = Dict[str, Any]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def check_repetitions_agree(done: List[Record]) -> List[CheckResult]:
    """(a) Every repetition of a seed produces the same final images,
    simulated times and event count: host-side tooling (profiler,
    sampler) and host noise must not leak into the simulation."""

    def fingerprint(r: Record) -> Dict[str, Any]:
        counts = r["counts"]
        return {
            "image_digests": r["image_digests"],
            "sim.events": counts["sim.events"],
            **{k: counts.get(k) for k in ("sim_iter_s", "sim_execute_s", "sim_stage_s")},
            "cycles": [(c["sim_resize_s"], c["sim_recover_s"]) for c in r["facts"].get("cycles", ())],
        }

    reference = fingerprint(done[0])
    differing = sorted(
        {key for r in done[1:] for key, value in fingerprint(r).items() if value != reference[key]}
    )
    return [CheckResult(
        "repetitions_agree", not differing,
        f"{len(done)} repetitions identical" if not differing else f"differ in {differing}",
    )]


def check_counters_conserve(done: List[Record]) -> List[CheckResult]:
    """(d) Blocks staged and replicated are what the workload sent."""
    counts, expected = done[0]["counts"], done[0]["expected"]
    staged = counts["core.blocks_staged"]
    out = [CheckResult(
        "blocks_staged_conserved", staged == expected["blocks_staged"],
        f"core.blocks_staged {staged} expected {expected['blocks_staged']}",
    )]
    factor = expected["replication_factor"]
    if factor > 1:
        replicated = counts["core.blocks_replicated"]
        # Recovery re-replicates adopted blocks, so >= under crashes.
        floor = expected["blocks_staged"] * (factor - 1)
        out.append(CheckResult(
            "blocks_replicated_conserved", replicated is not None and replicated >= floor,
            f"core.blocks_replicated {replicated} floor {floor}",
        ))
    return out


def check_gs_iso_real(done: List[Record]) -> List[CheckResult]:
    """(b) In-transit equals in-situ, the frame is not empty, and the
    workload is the size it claims to be."""
    diffs = [d for r in done for d in r["facts"].get("oracle_max_abs_diff", ())]
    coverage = done[0]["facts"]["coverage"]
    triangles = done[0]["facts"]["triangles"]
    lo, hi = GS_TRIANGLE_BAND
    return [
        CheckResult(
            "gs_matches_one_server_oracle", bool(diffs) and max(diffs) <= ORACLE_ATOL,
            f"max |staged - in situ| = {max(diffs):.3g} over {len(diffs)} images" if diffs
            else "no oracle comparison ran",
        ),
        CheckResult(
            "gs_coverage", min(coverage) >= GS_MIN_COVERAGE,
            f"first/last coverage {coverage} (need >= {GS_MIN_COVERAGE})",
        ),
        CheckResult(
            "gs_triangles_in_band", all(lo <= t <= hi for t in triangles),
            f"triangles per iteration {triangles} (band {lo}-{hi})",
        ),
    ]


def check_dwi_volume_real(done: List[Record]) -> List[CheckResult]:
    """(c) A finite image of plausible coverage, and every generated
    cell reached a server."""
    first = done[0]
    coverage = first["image_coverage"]
    generated, staged = first["facts"]["cells_generated"], first["facts"]["cells_staged"]
    lo, hi = DWI_COVERAGE_BAND
    return [
        CheckResult("dwi_image_finite", first["image_finite"], f"finite: {first['image_finite']}"),
        CheckResult(
            "dwi_coverage", all(lo <= c <= hi for c in coverage),
            f"coverage {coverage} (band {lo}-{hi})",
        ),
        CheckResult(
            "dwi_cells_conserved", generated == staged, f"generated {generated} staged {staged}"
        ),
    ]


def check_elastic_tenants(done: List[Record]) -> List[CheckResult]:
    """(d, elastic part) Every crash is absorbed by the replicas: blocks
    adopted, nothing re-staged by a client, no fallback, and the group
    is back at its base size after each cycle."""
    base = done[0]["sizes"]["base_servers"]
    return [
        CheckResult(
            f"elastic_cycle_{i}_recovers_from_replicas",
            cycle["blocks_recovered"] > 0
            and cycle["client_restages"] == 0
            and cycle["restage_fallbacks"] == 0
            and cycle["servers_after"] == base,
            str(cycle),
        )
        for i, cycle in enumerate(done[0]["facts"]["cycles"], 1)
    ]


_BY_WORKLOAD: Dict[str, List[Callable[[List[Record]], List[CheckResult]]]] = {
    "gs_iso_real": [check_gs_iso_real],
    "dwi_volume_real": [check_dwi_volume_real],
    "mb_scale_virtual": [],
    "elastic_tenants": [check_elastic_tenants],
}


def run_checks(workload: str, records: List[Record]) -> List[CheckResult]:
    done = [r for r in records if r["error"] is None]
    if not done:
        return [CheckResult("repetitions_finished", False, "no repetition finished")]
    checks = [check_repetitions_agree, check_counters_conserve] + _BY_WORKLOAD[workload]
    return [row for check in checks for row in check(done)]
