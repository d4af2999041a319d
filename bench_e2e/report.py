"""From run records to named metrics, tables and run-to-run comparison.

``summarise`` turns the records of one workload's repetitions into the
end-to-end and per-layer metrics of ``spec.py`` (how each value is
computed is stated next to it below and in ``README.md``);
``render`` prints them; ``compare`` judges two summaries against the
bounds.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Tuple

from bench_e2e.checks import run_checks
from bench_e2e.spec import E2E, PER_LAYER, SAMPLED_LAYERS
from bench_e2e.trace import TIMED_PHASES

__all__ = ["DISTORTED_OVERHEAD", "PROBE_REFERENCE_S", "compare", "render", "render_compare",
           "summarise"]

Record = Dict[str, Any]

#: A per-layer table from a traced repetition this much slower than the
#: timed ones is flagged as distorted by its own tracing.
DISTORTED_OVERHEAD = 1.10

#: CPU seconds ``section.speed_probe`` takes on the box the baseline was
#: measured on, in its fast mode. Host times are reported as if the vCPU
#: always ran at this speed (README, *Noise*); on another machine they
#: are seconds of this reference machine.
PROBE_REFERENCE_S = 0.0075


def _stat(value: Optional[float], samples: List[float]) -> Dict[str, Any]:
    return {
        "value": value,
        "median": statistics.median(samples) if samples else None,
        "min": min(samples) if samples else None,
        "max": max(samples) if samples else None,
        "n": len(samples),
    }


def _local_speed(record: Record, i: int) -> float:
    """Probe seconds around timed operation ``i``: the mean of the pair
    taken just before it and the pair taken just after."""
    before, after = record["probe_s"][i], record["probe_s"][i + 1]
    return statistics.mean(before + after)


def _normalised_ops(record: Record) -> List[float]:
    """CPU seconds of each timed operation at the reference speed: the
    measured CPU divided by how slow the vCPU was around it."""
    return [
        op["cpu_s"] * PROBE_REFERENCE_S / _local_speed(record, i)
        for i, op in enumerate(record["ops"])
    ]


def _typical_ops(timed: List[Record]) -> List[Tuple[str, float]]:
    """(kind, normalised CPU) of every timed operation: its median over
    the repetitions. The program is deterministic, so operation i is the
    same work in every repetition."""
    if not timed:
        return []
    kinds = [op["kind"] for op in timed[0]["ops"]]
    columns = zip(*(_normalised_ops(r) for r in timed))
    return [(kind, statistics.median(column)) for kind, column in zip(kinds, columns)]


def _setup_s(record: Record) -> float:
    """Interpreter + imports (the driver's, at the driver's speed then)
    plus this repetition's inputs and set-up, at the reference speed."""
    return PROBE_REFERENCE_S * (
        record["import_cpu_s"] / record["import_probe_s"]
        + record["setup_cpu_s"] / statistics.mean(record["probe_s"][0])
    )


def _growth(ops: List[Tuple[str, float]]) -> Optional[float]:
    """CPU of the second half of the timed operations over the first
    half (the middle one is left out when their number is odd)."""
    half = len(ops) // 2
    if half == 0:
        return None
    first = sum(cpu for _, cpu in ops[:half])
    return sum(cpu for _, cpu in ops[-half:]) / first


def _e2e(timed: List[Record], done: List[Record], counted: Optional[Record],
         run_cpu_s: Optional[float]) -> Dict[str, Dict[str, Any]]:
    reference = done[0] if done else None

    def sim(name: str) -> Optional[float]:
        return None if reference is None else reference["counts"].get(name)

    def cycles(name: str) -> Optional[float]:
        values = [c[name] for c in reference["facts"].get("cycles", ())] if reference else []
        return statistics.median(values) if values else None

    totals = [sum(_normalised_ops(r)) for r in timed]
    setups = [_setup_s(r) for r in timed]
    rss = [r["peak_rss_mb"] for r in timed]
    calls = None if counted is None else counted["py_calls"] / 1e6
    values = {
        # median over the timed repetitions: each sets the stack up afresh
        "setup_s": _stat(statistics.median(setups) if setups else None, setups),
        # sum of every operation's median over the repetitions (_typical_ops)
        "run_cpu_s": _stat(run_cpu_s, totals),
        "py_calls_m": _stat(calls, [] if calls is None else [calls]),
        # median, not max: one repetition in ten reads ~25 MB high on this
        # box for the same allocations (page-level effects, not the program)
        "peak_rss_mb": _stat(statistics.median(rss) if rss else None, rss),
        "wire_mb_per_iter": _stat(reference["wire_mb_per_iter"] if reference else None, []),
        "sim_resize_s": _stat(cycles("sim_resize_s"), []),
        "sim_recover_s": _stat(cycles("sim_recover_s"), []),
    }
    for name in ("sim_iter_s", "sim_execute_s", "sim_stage_s"):
        values[name] = _stat(sim(name), [])
    return {m.name: dict(values[m.name], unit=m.unit, bound=m.bound) for m in E2E}


def _per_layer(
    timed: List[Record], done: List[Record], traced: Optional[Record],
    ops: List[Tuple[str, float]], e2e: Dict[str, Dict[str, Any]],
) -> Dict[str, Optional[float]]:
    out: Dict[str, Optional[float]] = {m.name: None for m in PER_LAYER}
    run_cpu_s = e2e["run_cpu_s"]["value"]
    if done:
        counts = done[0]["counts"]
        for name in out:
            if name in counts:
                out[name] = counts[name]
        events = counts.get("sim.events")
        if events is not None and run_cpu_s:
            out["sim.events_per_cpu_s"] = events / run_cpu_s
    for name in ("sim_resize_s", "sim_recover_s"):
        out[name] = e2e[name]["value"]

    by_kind = {"iteration": 0.0, "resize": 0.0, "recover": 0.0}
    for kind, cpu in ops:
        by_kind[kind] += cpu
    if ops:
        out["phase.iterations_s"] = by_kind["iteration"]
        out["phase.resize_s"] = by_kind["resize"]
        out["phase.recover_s"] = by_kind["recover"]
        out["telemetry.iter_cpu_growth"] = _growth(ops)
    if timed:
        out["phase.setup_s"] = statistics.median(r["phase_cpu_s"]["setup"] for r in timed)
        out["phase.inputs_s"] = statistics.median(r["phase_cpu_s"]["inputs"] for r in timed)

    if traced is not None and run_cpu_s:
        sampled: Dict[str, float] = {}
        for phase in TIMED_PHASES:
            for layer, secs in traced["layers"].get(phase, {}).items():
                sampled[layer] = sampled.get(layer, 0.0) + secs
        total = sum(sampled.values())
        # Shares of the traced repetition applied to run_cpu_s, so the
        # rows add up to the number they explain.
        scale = run_cpu_s / total if total else 0.0
        known = set(SAMPLED_LAYERS) - {"other"}
        for layer in known:
            out[f"{layer}.self_s"] = sampled.get(layer, 0.0) * scale
        out["py.gc_s"] = sampled.get("py.gc", 0.0) * scale
        out["other.self_s"] = scale * sum(
            secs for layer, secs in sampled.items() if layer not in known and layer != "py.gc"
        )
        out["py.gc_collections"] = float(
            sum(traced["gc_collections"].get(phase, 0) for phase in TIMED_PHASES)
        )
        out["telemetry.report_s"] = traced.get("report_s")
        wall, own = traced["traced_wall_s"], traced["sampler_overhead_s"]
        out["trace.overhead_ratio"] = wall / (wall - own)
    return out


def summarise(workload: str, records: List[Record]) -> Dict[str, Any]:
    """Metrics, failure accounting and check results for one workload."""
    done = [r for r in records if r["error"] is None]
    timed = [r for r in done if r["mode"] == "timed"]
    counted = next((r for r in done if r["mode"] == "counted"), None)
    traced = next((r for r in done if r["mode"] == "traced"), None)
    ops = _typical_ops(timed)
    run_cpu_s = sum(cpu for _, cpu in ops) if ops else None
    e2e = _e2e(timed, done, counted, run_cpu_s)
    checks = run_checks(workload, records)
    attempted = sum(r["ops_planned"] for r in records) + len(checks)
    failed = sum(r["ops_planned"] - r["ops_done"] for r in records) + sum(
        1 for c in checks if not c.ok
    )
    reference = done[0] if done else {}
    return {
        "sizes": reference.get("sizes"),
        "repetitions": {m: sum(1 for r in records if r["mode"] == m)
                        for m in ("timed", "counted", "traced")},
        "e2e": e2e,
        "failure_ratio": {"failed": failed, "attempted": attempted},
        "per_layer": _per_layer(timed, done, traced, ops, e2e),
        "layers_by_phase": traced.get("layers") if traced else None,
        "traced_wall_s": traced.get("traced_wall_s") if traced else None,
        "timed_ops_cpu_s": [[o["cpu_s"] for o in r["ops"]] for r in timed],
        "timed_probe_s": [r["probe_s"] for r in timed],
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "image_digests": reference.get("image_digests"),
        "errors": [r["error"] for r in records if r["error"] is not None],
        "warnings": sorted({w for r in records for w in r["warnings"]}),
    }


# ---------------------------------------------------------------------------
def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.4f}".rstrip("0").rstrip(".") if abs(value) < 100 else f"{value:.1f}"
    return f"{value:.4g}"


def render(workload: str, summary: Dict[str, Any]) -> str:
    """The human-readable report of one workload."""
    reps = summary["repetitions"]
    lines = [
        f"== {workload}  sizes={summary['sizes']}  "
        f"repetitions: {reps['timed']} timed, {reps['counted']} counted, {reps['traced']} traced",
        f"  {'end-to-end metric':<18}{'value':>12} {'unit':<7}{'median':>10}{'min':>10}{'max':>10}"
        f"{'n':>3}  bound",
    ]
    for metric in E2E:
        row = summary["e2e"][metric.name]
        lines.append(
            f"  {metric.name:<18}{_fmt(row['value']):>12} {metric.unit:<7}"
            f"{_fmt(row['median']):>10}{_fmt(row['min']):>10}{_fmt(row['max']):>10}"
            f"{row['n']:>3}  {metric.bound:.0%}"
        )
    ratio = summary["failure_ratio"]
    lines.append(f"  {'failure_ratio':<18}{ratio['failed']:>9}/{ratio['attempted']:<5}(bound +0)")
    for check in summary["checks"]:
        lines.append(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    for error in summary["errors"]:
        lines.append("  repetition failed: " + error.strip().replace("\n", "\n    "))
    for warning in summary["warnings"]:
        lines.append(f"  warning: {warning}")

    per_layer = summary["per_layer"]
    run_cpu_s = summary["e2e"]["run_cpu_s"]["value"]
    overhead = per_layer.get("trace.overhead_ratio")
    if overhead is not None:
        flag = "  ** distorted by tracing **" if overhead > DISTORTED_OVERHEAD else ""
        lines.append(f"  per-layer table (traced repetition, overhead ratio {overhead:.2f}){flag}")
        shares = sorted(
            ((name, per_layer[name]) for name in per_layer
             if name.endswith(".self_s") or name == "py.gc_s"),
            key=lambda item: -(item[1] or 0.0),
        )
        for name, secs in shares:
            if secs:
                lines.append(f"    {name:<28}{secs:>10.4f} s {secs / run_cpu_s:>7.1%}")
    for metric in PER_LAYER:
        if metric.name.endswith(".self_s") or metric.name == "py.gc_s":
            continue
        lines.append(f"    {metric.name:<28}{_fmt(per_layer[metric.name]):>14} {metric.unit}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
def _verdict(base: Dict[str, Any], new: Dict[str, Any], bound: float) -> Tuple[Optional[float], str]:
    """better / same / worse / unresolved for a lower-is-better metric."""
    a, b = base["value"], new["value"]
    if a is None or b is None:
        return None, "same" if a is b else "unresolved"
    delta = (b - a) / a if a else (0.0 if b == a else float("inf"))
    if abs(delta) <= bound:
        return delta, "same"
    # With repetitions on both sides the ranges must separate as well.
    lo_a, hi_a = (base["min"], base["max"]) if base["n"] else (a, a)
    lo_b, hi_b = (new["min"], new["max"]) if new["n"] else (b, b)
    if delta > 0:
        return delta, "worse" if lo_b > hi_a else "unresolved"
    return delta, "better" if hi_b < lo_a else "unresolved"


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, Any]:
    """One row per (workload, e2e metric); ``regressed`` is true on any
    ``worse`` or a higher failure ratio."""
    rows: List[Dict[str, Any]] = []
    notes: List[str] = []
    regressed = False
    same_seed = base.get("seed") == new.get("seed")
    for workload, a in base["workloads"].items():
        b = new["workloads"].get(workload)
        if b is None:
            notes.append(f"{workload}: missing from the second file")
            regressed = True
            continue
        for metric in E2E:
            delta, verdict = _verdict(a["e2e"][metric.name], b["e2e"][metric.name], metric.bound)
            rows.append({
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "base": a["e2e"][metric.name]["value"], "new": b["e2e"][metric.name]["value"],
                "delta": delta, "bound": metric.bound, "verdict": verdict,
            })
            regressed |= verdict == "worse"
            if same_seed and metric.exact and delta:
                notes.append(
                    f"{workload}: {metric.name} is not bit-identical "
                    f"({a['e2e'][metric.name]['value']!r} -> {b['e2e'][metric.name]['value']!r}); "
                    "a host-only change must leave it untouched"
                )
        fa, fb = a["failure_ratio"], b["failure_ratio"]
        if fb["failed"] * fa["attempted"] > fa["failed"] * fb["attempted"]:
            notes.append(
                f"{workload}: failure_ratio rose {fa['failed']}/{fa['attempted']} -> "
                f"{fb['failed']}/{fb['attempted']}"
            )
            regressed = True
        if same_seed:
            if a.get("image_digests") != b.get("image_digests"):
                notes.append(f"{workload}: final image digests differ; "
                             "a host-only change must leave them untouched")
            ea, eb = a["per_layer"].get("sim.events"), b["per_layer"].get("sim.events")
            if ea != eb:
                notes.append(f"{workload}: sim.events differs ({ea} -> {eb})")
    return {"rows": rows, "notes": notes, "regressed": regressed}


def render_compare(result: Dict[str, Any]) -> str:
    lines = [f"{'workload':<18}{'metric':<18}{'base':>12}{'new':>12}{'delta':>9}{'bound':>7}  verdict"]
    for row in result["rows"]:
        delta = "" if row["delta"] is None else f"{row['delta']:+.1%}"
        lines.append(
            f"{row['workload']:<18}{row['metric']:<18}{_fmt(row['base']):>12}{_fmt(row['new']):>12}"
            f"{delta:>9}{row['bound']:>7.0%}  {row['verdict']}"
        )
    lines += [f"note: {note}" for note in result["notes"]]
    lines.append("RESULT: " + ("REGRESSED" if result["regressed"] else "ok"))
    return "\n".join(lines)
