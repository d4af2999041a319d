"""Command line of the end-to-end benchmark.

Two ways in, one program:

``python3 bench_e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload for about S seconds, last stdout line one JSON object
    (the form ``BENCHMARK.json`` names);

``PYTHONPATH=src python -m bench_e2e [--workload W] [--seed N] [--reps K]
[--quick] [--out FILE]``
    every workload (or one): K timed, one counted and one traced
    repetition each, all metrics and the per-layer table printed.
    ``--compare A.json B.json`` judges two ``--out`` files against the
    bounds; ``--selftest`` runs two full sets and compares them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if __package__ in (None, ""):  # run as a script: make the packages importable
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench_e2e import spec  # noqa: E402  (needs the path set up above)

#: One thread everywhere and a fixed hash seed, set before the
#: interpreter that does the work starts.
FIXED_ENV = {
    "PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}
#: CPU burnt before anything is timed: a vCPU that was idle runs at a
#: third of its speed for the first few hundred milliseconds.
WARMUP_CPU_S = 0.4
#: 1-min load average above which a run is flagged (not failed). One
#: benchmark process alone holds it near 1.0.
HIGH_LOAD = 1.5


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="bench_e2e", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=spec.WORKLOAD_NAMES, help="default: all four")
    p.add_argument("--seed", type=int, default=1,
                   help="feeds input generation and Simulation(seed=...) only")
    p.add_argument("--seconds", type=float,
                   help="contract mode: measure one workload for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="contract mode: 0 prints end-to-end metrics, 1 per-layer metrics")
    p.add_argument("--reps", type=int, default=3, help="timed repetitions per workload")
    p.add_argument("--quick", action="store_true",
                   help="1 timed repetition, a quarter of the iterations (smoke test)")
    p.add_argument("--out", metavar="FILE", help="write the full result as JSON")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--selftest", action="store_true",
                   help="run two full sets back to back; fail if they disagree beyond the bounds")
    args = p.parse_args(argv)
    if args.seconds is not None and args.workload is None:
        p.error("--seconds needs --workload")
    return args


def _fix_environment() -> None:
    """Re-exec once with FIXED_ENV, then pin to one CPU."""
    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        os.execve(sys.executable, [sys.executable] + sys.orig_argv[1:],
                  dict(os.environ, **FIXED_ENV))
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_program() -> Dict[str, float]:
    """Import the stack and the benchmark. Returns the CPU seconds the
    interpreter and the imports took (the first part of ``setup_s``) and
    a reading of the speed probe taken right after."""
    while time.process_time() < WARMUP_CPU_S:
        pass
    warm = time.process_time()
    import bench_e2e.measure  # noqa: F401  (pulls in repro, numpy, scipy)
    import bench_e2e.report  # noqa: F401
    from bench_e2e.section import speed_probe

    cpu_s = time.process_time() - warm
    return {"cpu_s": cpu_s, "probe_s": sum(speed_probe() for _ in range(4)) / 4}


def _environment(seed: int) -> Dict[str, Any]:
    import numpy
    import scipy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(), "cpu_model": model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit, "seed": seed,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def run_set(
    workloads: List[str], seed: int, imports: Dict[str, float], *,
    counted: bool, traced: bool, min_timed: int,
    seconds: Optional[float] = None, quick: bool = False,
) -> Dict[str, Any]:
    """Measure the given workloads one after another; returns the full
    result (what ``--out`` writes and ``--compare`` reads)."""
    from bench_e2e.measure import measure
    from bench_e2e.report import summarise

    result: Dict[str, Any] = {"environment": _environment(seed), "seed": seed,
                              "quick": quick, "workloads": {}}
    if result["environment"]["loadavg_1m_start"] > HIGH_LOAD:
        print(f"warning: 1-min load average {result['environment']['loadavg_1m_start']:.2f} "
              f"> {HIGH_LOAD} at start; host times will be noisy", file=sys.stderr)
    for name in workloads:
        records = measure(name, seed, imports, counted=counted, traced=traced,
                          min_timed=min_timed, seconds=seconds, quick=quick)
        result["workloads"][name] = summarise(name, records)
    result["environment"]["loadavg_1m_end"] = os.getloadavg()[0]
    return result


def _write(result: Dict[str, Any], path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)


def _correct(result: Dict[str, Any]) -> bool:
    return all(w["failure_ratio"]["failed"] == 0 for w in result["workloads"].values())


def _contract(args: argparse.Namespace, imports: Dict[str, float]) -> int:
    """One workload for ``--seconds``; the last line is the JSON result."""
    from bench_e2e.measure import OUT_DIR
    from bench_e2e.report import render

    result = run_set([args.workload], args.seed, imports, counted=args.trace == 0,
                     traced=args.trace == 1, min_timed=1 if args.quick else 3,
                     seconds=args.seconds, quick=args.quick)
    summary = result["workloads"][args.workload]
    print(render(args.workload, summary))
    _write(result, args.out or os.path.join(OUT_DIR, f"{args.workload}.json"))
    if args.trace:
        values = {m.name: (summary["per_layer"][m.name], m.unit) for m in spec.PER_LAYER}
        # A counter this workload never touches reads 0, not "absent".
        values = {k: (0.0 if v is None else v, u) for k, (v, u) in values.items()}
    else:
        values = {m.name: (summary["e2e"][m.name]["value"], m.unit) for m in spec.E2E_CONTRACT}
        missing = [k for k, (v, _) in values.items() if v is None]
        if missing:
            print(f"no value for {missing}: no repetition finished", file=sys.stderr)
            return 1
    ratio = summary["failure_ratio"]
    print(json.dumps({
        "correct": ratio["failed"] == 0, "attempted": ratio["attempted"],
        "failed": ratio["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


def _full(args: argparse.Namespace, imports: Dict[str, float]) -> Dict[str, Any]:
    from bench_e2e.report import render

    workloads = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    result = run_set(workloads, args.seed, imports, counted=True, traced=True,
                     min_timed=1 if args.quick else args.reps, quick=args.quick)
    for name in workloads:
        print(render(name, result["workloads"][name]))
    env = result["environment"]
    print(f"environment: {env}")
    return result


def _compare_files(a_path: str, b_path: str) -> int:
    from bench_e2e.report import compare, render_compare

    with open(a_path) as fa, open(b_path) as fb:
        verdict = compare(json.load(fa), json.load(fb))
    print(render_compare(verdict))
    return 1 if verdict["regressed"] else 0


def _selftest(args: argparse.Namespace, imports: Dict[str, float]) -> int:
    """Two complete sets of the same commit must agree within the bounds."""
    from bench_e2e.report import compare, render_compare

    first, second = _full(args, imports), _full(args, imports)
    verdict = compare(first, second)
    print(render_compare(verdict))
    apart = [r for r in verdict["rows"] if r["verdict"] != "same"]
    for row in apart:
        print(f"selftest: {row['workload']} {row['metric']} differs by {row['delta']:+.1%} "
              f"(bound {row['bound']:.0%})")
    ok = not apart and not verdict["notes"] and _correct(first) and _correct(second)
    print("SELFTEST " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.compare:
        return _compare_files(*args.compare)
    _fix_environment()
    try:
        imports = _import_program()
    except ImportError as err:
        print(f"cannot import the program under test: {err}", file=sys.stderr)
        return 2
    if args.seconds is not None:
        return _contract(args, imports)
    if args.selftest:
        return _selftest(args, imports)
    result = _full(args, imports)
    if args.out:
        _write(result, args.out)
    return 0 if _correct(result) else 1


if __name__ == "__main__":
    sys.exit(main())
