"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro.bench --list
    python -m repro.bench table1 table2
    python -m repro.bench fig5 --arg scales=[4,16]
    python -m repro.bench all
    python -m repro.bench report --controller mona --chrome trace.json

``report`` runs a small end-to-end ColzaExperiment and prints the
telemetry report (span summary, per-iteration critical path, metrics);
``--chrome PATH`` additionally writes a Perfetto-loadable Chrome
``trace_event`` file. Each experiment prints its structured results;
the paper-vs-measured checks are the rows of ``tests/test_fidelity.py``
(``make fidelity`` runs the paper-size ones) — this CLI is for
interactive use.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import time
from typing import Any, Callable, Dict

EXPERIMENTS: Dict[str, str] = {
    "table1": "repro.bench.experiments.table1_p2p",
    "table2": "repro.bench.experiments.table2_reduce",
    "fig1a": "repro.bench.experiments.fig1a_dwi_dataset",
    "fig3": "repro.bench.experiments.fig3_fig1b_renders",
    "fig4": "repro.bench.experiments.fig4_resize",
    "fig5": "repro.bench.experiments.fig5_mandelbulb",
    "fig6": "repro.bench.experiments.fig6_grayscott",
    "fig7": "repro.bench.experiments.fig7_dwi",
    "fig8": "repro.bench.experiments.fig8_frameworks",
    "fig9": "repro.bench.experiments.fig9_elastic",
    "fig10": "repro.bench.experiments.fig10_elastic_dwi",
    "sec2e": "repro.bench.experiments.sec2e_activate",
    "ablation-reduce": "repro.bench.experiments.ablation_reduce",
    "ablation-ssg": "repro.bench.experiments.ablation_ssg",
    "ablation-compositing": "repro.bench.experiments.ablation_compositing",
    "ablation-autoscale": "repro.bench.experiments.ablation_autoscale",
    "autoscale-slo": "repro.bench.experiments.autoscale_slo",
}


def _load_runner(name: str) -> Callable[..., Any]:
    import importlib

    module = importlib.import_module(EXPERIMENTS[name])
    return module.run


def _parse_arg(text: str) -> tuple:
    key, _, raw = text.partition("=")
    if not _:
        raise SystemExit(f"--arg expects key=value, got {text!r}")
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return key, value


def _jsonable(obj: Any) -> Any:
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return obj


def _run_report(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench report",
        description="Run a small ColzaExperiment and print its telemetry report.",
    )
    parser.add_argument("--servers", type=int, default=4)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument("--controller", default="mona", choices=["mona", "mpi"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--chrome", metavar="PATH",
        help="write a Chrome trace_event JSON (load in Perfetto / chrome://tracing)",
    )
    parser.add_argument("--json", action="store_true", help="print the report as JSON")
    args = parser.parse_args(argv)

    from repro.bench.harness import ColzaExperiment
    from repro.core.pipelines import IsoSurfaceScript
    from repro.na import VirtualPayload
    from repro.telemetry import render_text_report, telemetry_report, write_chrome_trace

    exp = ColzaExperiment(
        args.servers, args.clients,
        IsoSurfaceScript(field="dist", isovalues=[1.0]),
        controller=args.controller, seed=args.seed,
        width=64, height=64, library="libcolza-iso.so",
    ).setup()
    payload = VirtualPayload((8192,), "float64")
    for it in range(1, args.iterations + 1):
        blocks = [[(c, payload)] for c in range(args.clients)]
        exp.run_iteration(it, blocks)

    report = telemetry_report(exp.sim, pipeline=exp.pipeline_name)
    if args.json:
        print(json.dumps(_jsonable(report), indent=2))
    else:
        print(render_text_report(report))
    if args.chrome:
        path = write_chrome_trace(exp.sim.trace, args.chrome, metrics=exp.sim.metrics)
        print(f"chrome trace written to {path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        return _run_report(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run Colza-reproduction experiments interactively.",
    )
    parser.add_argument("experiments", nargs="*", help="experiment names, or 'all'")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--arg", action="append", default=[], metavar="KEY=VALUE",
        help="keyword argument forwarded to run() (Python literal)",
    )
    parser.add_argument("--json", action="store_true", help="print raw JSON results")
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments:")
        for name, module in EXPERIMENTS.items():
            print(f"  {name:22s} {module}")
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    kwargs = dict(_parse_arg(a) for a in args.arg)
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; use --list", file=sys.stderr)
            return 2
        print(f"== {name} ({EXPERIMENTS[name]}) ==")
        t0 = time.time()  # detlint: disable=DET001 -- operator-facing wall time, not sim state
        results = _load_runner(name)(**kwargs)
        elapsed = time.time() - t0  # detlint: disable=DET001 -- operator-facing wall time, not sim state
        print(json.dumps(_jsonable(results), indent=2) if args.json else _jsonable(results))
        print(f"-- {name} done in {elapsed:.1f}s wall --\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
