"""Exporters: Chrome ``trace_event`` JSON and text/JSON reports.

The Chrome export follows the Trace Event Format (the JSON flavor
Perfetto and ``chrome://tracing`` load): stacked spans become complete
(``"ph": "X"``) events on one track per simulation task, async spans
(message transits) become async begin/end (``"b"``/``"e"``) pairs, and
every event carries its span id and parent span id in ``args`` so the
hierarchy survives even across tracks. Timestamps are microseconds of
*simulated* time.

``telemetry_report`` bundles the span summary, per-iteration critical
path breakdowns, and the metrics snapshot into one JSON-ready dict;
``render_text_report`` pretty-prints it for the CLI.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.sim.trace import canonical_tags
from repro.telemetry.critical_path import CriticalPathAnalyzer, layer_of

__all__ = [
    "chrome_trace_events",
    "render_text_report",
    "telemetry_report",
    "write_chrome_trace",
]


def chrome_trace_events(tracer) -> List[Dict[str, Any]]:
    """All finished spans as Chrome trace events (+ counter totals)."""
    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}

    def tid_for(task: str) -> int:
        tid = tids.get(task)
        if tid is None:
            tid = len(tids) + 1
            tids[task] = tid
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": task or "<root>"},
                }
            )
        return tid

    for span in tracer.spans:
        if span.end is None:
            continue
        args = canonical_tags(span.tags)
        args["span_id"] = span.id
        if span.parent is not None:
            args["parent_span_id"] = span.parent
        common = {
            "name": span.name,
            "cat": layer_of(span.name),
            "pid": 0,
            "tid": tid_for(span.task),
            "args": args,
        }
        if span.detached:
            # Async pair: renders as its own nestable track slice, so
            # overlapping message transits don't corrupt task tracks.
            events.append(
                {**common, "ph": "b", "id": span.id, "ts": span.start * 1e6}
            )
            events.append(
                {**common, "ph": "e", "id": span.id, "ts": span.end * 1e6}
            )
        else:
            events.append(
                {
                    **common,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                }
            )
    return events


def write_chrome_trace(tracer, path: str, metrics=None) -> str:
    """Write a Perfetto-loadable JSON object trace to ``path``."""
    payload: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        payload["otherData"] = {"metrics": metrics.snapshot()}
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, separators=(",", ":")))
    return path


# ---------------------------------------------------------------------------
# reports
def telemetry_report(sim, pipeline: Optional[str] = None) -> Dict[str, Any]:
    """Span summary + per-iteration critical paths + metrics snapshot."""
    analyzer = CriticalPathAnalyzer()
    iterations = [
        analyzer.iteration_breakdown(span)
        for span in sim.trace.find("colza.iteration")
        if pipeline is None or span.tags.get("pipeline") in (None, pipeline)
    ]
    return {
        "now": sim.now,
        "spans": sim.trace.summary(),
        "iterations": iterations,
        "counters": dict(sim.trace.counters),
        "metrics": sim.metrics.snapshot(),
    }


def render_text_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`telemetry_report` output."""
    from repro.bench.reporting import Table

    lines: List[str] = [f"telemetry report @ t={report['now']:.3f}s (simulated)"]

    spans = report["spans"]
    if spans:
        table = Table("spans", ["name", "count", "total_s", "mean_s", "p50_s", "p99_s", "max_s"])
        for name in sorted(spans):
            entry = spans[name]
            table.add(
                name,
                int(entry["count"]),
                f"{entry['total']:.6f}",
                f"{entry['mean']:.6f}",
                f"{entry['p50']:.6f}",
                f"{entry['p99']:.6f}",
                f"{entry['max']:.6f}",
            )
        lines += ["", table.render()]

    iterations = report["iterations"]
    if iterations:
        table = Table(
            "critical path per iteration",
            ["iteration", "duration_s", "fabric_s", "compute_s", "gossip_s", "protocol_s", "other_s", "idle_s"],
        )
        for entry in iterations:
            layers = entry["layers"]
            table.add(
                entry["iteration"],
                f"{entry['duration']:.6f}",
                f"{layers.get('fabric', 0.0):.6f}",
                f"{layers.get('compute', 0.0):.6f}",
                f"{layers.get('gossip', 0.0):.6f}",
                f"{layers.get('protocol', 0.0):.6f}",
                f"{layers.get('other', 0.0):.6f}",
                f"{entry['idle']:.6f}",
            )
        lines += ["", table.render()]

    metrics = report["metrics"]
    if metrics:
        table = Table("metrics", ["name", "kind", "value"])
        for name in sorted(metrics):
            snap = metrics[name]
            if snap["kind"] == "histogram":
                if snap["count"]:
                    value = (
                        f"n={snap['count']} mean={snap['mean']:.3g} "
                        f"p50={snap['p50']:.3g} p99={snap['p99']:.3g} max={snap['max']:.3g}"
                    )
                else:
                    value = "n=0"
            else:
                value = f"{snap['value']:g}"
            table.add(name, snap["kind"], value)
        lines += ["", table.render()]

    if report["counters"]:
        table = Table("trace counters", ["name", "value"])
        for name in sorted(report["counters"]):
            table.add(name, f"{report['counters'][name]:g}")
        lines += ["", table.render()]

    return "\n".join(lines)
