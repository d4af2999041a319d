"""Telemetry: hierarchical tracing, metrics, and trace analysis.

The measurement layer the evaluation stands on (ISSUE 2). Three parts:

- :mod:`repro.telemetry.sketch` / :mod:`repro.telemetry.metrics` —
  deterministic streaming quantiles and a typed per-component metrics
  registry (counters, gauges, histograms), owned by each
  :class:`~repro.sim.kernel.Simulation` as ``sim.metrics``;
- :mod:`repro.telemetry.tree` / :mod:`repro.telemetry.critical_path` —
  analyses over the span tree the :class:`~repro.sim.trace.Tracer` owns
  (a column store read through :class:`~repro.sim.trace.Span` rows and
  its child index): the golden-fixture shape summary and the
  critical-path analyzer that attributes a timestep's wall clock to
  fabric/compute/gossip/protocol without double counting;
- :mod:`repro.telemetry.export` — Chrome ``trace_event`` JSON (opens in
  Perfetto / ``chrome://tracing``) and text/JSON reports, surfaced via
  ``python -m repro.bench report``.

Everything here is deterministic: same seed, same trace, same digest.
"""

from repro.telemetry.critical_path import Attribution, CriticalPathAnalyzer, LAYER_OF
from repro.telemetry.export import (
    chrome_trace_events,
    render_text_report,
    telemetry_report,
    write_chrome_trace,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.sketch import QuantileSketch
from repro.telemetry.tree import tree_shape

__all__ = [
    "Attribution",
    "Counter",
    "CriticalPathAnalyzer",
    "Gauge",
    "Histogram",
    "LAYER_OF",
    "MetricsRegistry",
    "QuantileSketch",
    "chrome_trace_events",
    "render_text_report",
    "telemetry_report",
    "tree_shape",
    "write_chrome_trace",
]
