"""Profile the timed section, or the set-up, of one end-to-end benchmark workload.

``python tools/profile_e2e.py --workload W [--seed N] [--quick] [--top K]
[--sort tottime|cumtime|ncalls] [--phase run|setup|sim] [--garbage]`` (or ``make
profile-e2e WORKLOAD=W``) builds the workload the way ``bench_e2e`` does
— inputs and set-up unprofiled, one thread, fixed hash seed — and
prints, for the timed section alone:

- the ``cProfile`` top-K and the total call count, which is the
  benchmark's ``py_calls_m`` for that seed to the call (same section,
  same way of counting);
- a census of the cyclic collector: collections and seconds per
  generation, read through ``gc.callbacks`` on a second, unprofiled run
  (a callback under the profiler would add its own calls to the count);
- with ``--garbage``, a third run with the collector *off*: what one
  ``gc.collect()`` afterwards finds unreachable, by type — the objects
  only the cyclic collector can free, i.e. what the collections of the
  census are spent on.

``--phase setup`` looks at the other half of a run, what ``setup_s``
bills: the ten modules that cost most to import, from a fresh
interpreter under ``-X importtime`` importing what the benchmark's driver
imports, then the ``cProfile`` top-K of ``make_inputs`` + ``setup``.

``--phase sim`` reads the *simulated* clock instead of the host's: one
row per tenant-iteration attempt (``colza.iteration`` span) of the timed
section — outcome, 2PC prepare rounds, simulated seconds in activate /
stage / execute / deactivate and the gap since the tenant's previous
attempt — flagging every phase that lasted a control-plane deadline or
more. It is how a stall that no host profile shows (a client sitting out
``CONTROL_TIMEOUT`` on a departed server) is found.

Every run is a fresh fork of the process that imported the program, as
the benchmark's repetitions are, so each starts from the same heap. The
tool reads ``bench_e2e.workloads.WORKLOADS`` and edits nothing there.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import subprocess
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench_e2e.run import FIXED_ENV  # noqa: E402  (needs the path set up above)


#: What the benchmark's driver imports before it forks (bench_e2e.run).
_DRIVER_IMPORTS = "import bench_e2e.measure, bench_e2e.report"


def _workload(args: argparse.Namespace):
    from bench_e2e.trace import PhaseRecorder
    from bench_e2e.workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, args.quick, PhaseRecorder())


def _set_up(workload) -> None:
    workload.make_inputs()
    workload.setup()


def _timed_section(args: argparse.Namespace) -> Callable[[], None]:
    """The workload with inputs made and set-up done; returns its ``run``."""
    workload = _workload(args)
    _set_up(workload)
    gc.collect()
    return workload.run


def _profiled(args: argparse.Namespace, what: str, call: Callable[..., None], *call_args) -> int:
    """Print the cProfile top-K of ``call``; returns its total call count."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        call(*call_args)
    finally:
        profiler.disable()
    print(f"== cProfile of {what}, top {args.top} by {args.sort}")
    pstats.Stats(profiler).strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return sum(entry.callcount for entry in profiler.getstats())


def profile(args: argparse.Namespace) -> None:
    calls = _profiled(args, "the timed section", _timed_section(args))
    print(f"total calls: {calls}  (py_calls_m {calls / 1e6:.6f})")


def profile_setup(args: argparse.Namespace) -> None:
    calls = _profiled(args, "make_inputs + setup", _set_up, _workload(args))
    print(f"total calls: {calls}")


_PHASES = ("activate", "stage", "execute", "deactivate")


def sim_phases(args: argparse.Namespace) -> None:
    """Simulated seconds per phase of every tenant-iteration attempt."""
    from repro.core.client import DistributedPipelineHandle

    deadline = DistributedPipelineHandle.CONTROL_TIMEOUT
    workload = _workload(args)
    _set_up(workload)
    trace = workload.sim.trace
    before = len(trace.spans)
    t0 = workload.sim.now
    workload.run()
    print(f"== simulated seconds per tenant-iteration attempt of the timed section "
          f"({workload.sim.now - t0:.2f} s simulated)")
    print(f"   '!' a phase of CONTROL_TIMEOUT ({deadline:g} s) or more; "
          f"'*' a span that never ended (a failed phase), read up to the attempt's end")
    print(f"{'at':>8s}  {'pipeline':<14s} {'iter':>4s} {'try':>3s} {'outcome':<9s} {'rounds':>6s} "
          + " ".join(f"{name:>11s}" for name in _PHASES) + f" {'gap':>8s}")
    last_end: Dict[str, float] = {}
    flagged = 0
    for span in trace.spans[before:]:
        if span.name != "colza.iteration":
            continue
        tags = span.tags
        end = span.end if span.end is not None else workload.sim.now
        cells = []
        rounds = 0
        for phase in _PHASES:
            children = [c for c in span.children if c.name == f"colza.{phase}"]
            seconds = sum((c.end if c.end is not None else end) - c.start for c in children)
            mark = "*" if any(c.end is None for c in children) else ""
            if seconds >= deadline:
                mark += "!"
                flagged += 1
            cells.append(f"{seconds:>9.4f}{mark:<2s}" if children else f"{'-':>9s}  ")
            if phase == "activate":
                for activate in children:
                    prepares = Counter(
                        c.tags["dest"] for c in activate.children
                        if c.tags.get("rpc") == "colza/activate_prepare"
                    )
                    rounds += max(prepares.values(), default=0)
        pipeline = str(tags.get("pipeline"))
        gap = span.start - last_end[pipeline] if pipeline in last_end else None
        last_end[pipeline] = end
        print(f"{span.start - t0:>8.3f}  {pipeline:<14s} {tags.get('iteration', -1):>4d} "
              f"{tags.get('attempt', 0):>3d} {str(tags.get('outcome', 'open')):<9s} {rounds:>6d} "
              + " ".join(cells) + (f" {gap:>8.3f}" if gap is not None else f" {'-':>8s}"))
    print(f"phases at or past the deadline: {flagged}")


def import_census(args: argparse.Namespace) -> int:
    """The modules that cost most to import, by their own time, in a
    fresh interpreter that imports what the benchmark's driver does."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((ROOT, os.path.join(ROOT, "src"))))
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _DRIVER_IMPORTS],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    if child.returncode:
        sys.stderr.write(child.stderr)
        return child.returncode
    rows = []
    for line in child.stderr.splitlines():  # "import time:  self us | cumulative | name"
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            rows.append((int(fields[0]), int(fields[1]), fields[2].strip()))
    total = sum(own for own, _, _ in rows)
    print(f"== imports of a fresh interpreter ({_DRIVER_IMPORTS!r}): "
          f"{len(rows)} modules, {total / 1e6:.3f} s; the ten costliest by own time")
    print(f"{'own ms':>9s} {'with children':>14s}  module")
    for own, cumulative, name in sorted(rows, reverse=True)[:10]:
        print(f"{own / 1e3:>9.1f} {cumulative / 1e3:>14.1f}  {name}")
    return 0


def gc_census(args: argparse.Namespace) -> None:
    run = _timed_section(args)
    collections: Dict[int, int] = Counter()
    seconds: Dict[int, float] = Counter()
    started: List[float] = []

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            started.append(time.perf_counter())
        else:
            collections[info["generation"]] += 1
            seconds[info["generation"]] += time.perf_counter() - started.pop()

    gc.callbacks.append(on_gc)
    cpu = time.process_time()
    try:
        run()
    finally:
        cpu = time.process_time() - cpu
        gc.callbacks.remove(on_gc)
    print(f"== cyclic collector during the timed section ({cpu:.3f} CPU-s unprofiled)")
    print(f"{'generation':>10s} {'collections':>12s} {'seconds':>9s}")
    for generation in range(3):
        print(f"{generation:>10d} {collections[generation]:>12d} {seconds[generation]:>9.4f}")
    print(f"{'all':>10s} {sum(collections.values()):>12d} {sum(seconds.values()):>9.4f}")


def garbage_census(args: argparse.Namespace) -> None:
    run = _timed_section(args)
    gc.disable()
    run()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collection finds, in gc.garbage
    gc.collect()
    by_type = Counter(type(obj).__name__ for obj in gc.garbage)
    print(f"== cyclic garbage of the timed section (collector off): {len(gc.garbage)} objects")
    for name, count in by_type.most_common(args.top):
        print(f"{count:>10d}  {name}")


def _in_fork(section: Callable[[argparse.Namespace], None], args: argparse.Namespace) -> int:
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            section(args)
            status = 0
        finally:
            sys.stdout.flush()
            os._exit(status)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--quick", action="store_true", help="a quarter of the iterations")
    p.add_argument("--top", type=int, default=25, help="rows per table")
    p.add_argument("--sort", choices=("tottime", "cumtime", "ncalls"), default="tottime")
    p.add_argument("--phase", choices=("run", "setup", "sim"), default="run",
                   help="run: the timed section (default); setup: imports, make_inputs and setup; "
                        "sim: simulated seconds per phase of every tenant-iteration attempt")
    p.add_argument("--garbage", action="store_true",
                   help="also run with the collector off and list the cyclic garbage by type")
    args = p.parse_args()
    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        os.execve(sys.executable, [sys.executable] + sys.orig_argv[1:], dict(os.environ, **FIXED_ENV))

    from bench_e2e.workloads import WORKLOADS  # the one import of the program, before any fork

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    print(f"{args.workload}, seed {args.seed}{', --quick' if args.quick else ''}")
    if args.phase == "setup":
        return max(import_census(args), _in_fork(profile_setup, args))
    if args.phase == "sim":
        return _in_fork(sim_phases, args)
    sections = [profile, gc_census] + ([garbage_census] if args.garbage else [])
    return max(_in_fork(section, args) for section in sections)


if __name__ == "__main__":
    sys.exit(main())
