"""Paired A/B of the end-to-end benchmark: a base revision against the working tree.

``python tools/ab_e2e.py --base REV --workload NAME [--seed N] [--pairs K]``
(or ``make bench-e2e-ab BASE=REV WORKLOAD=NAME``) checks ``REV`` out into a
temporary ``git worktree``, then runs the ``BENCHMARK.json`` command
(``bench_e2e/run.py``, run length from the same file) on it and on the
working tree for K alternating pairs — base first in even pairs, the
change first in odd ones, so drift of the box lands on both sides.
``--workload`` takes several names, or ``all``: the first is the claim
and gets ``--pairs`` (default 10), every other one is a must-not-move
row and gets ``--other-pairs`` (default 4); one table per workload, so a
claim and the workloads that share its code are one command
(``make bench-e2e-ab BASE=REV WORKLOAD=all`` puts ``BENCHMARK.json``'s
first workload first; ``--workload mb_scale_virtual all`` another).
``--base-tree DIR`` (``make bench-e2e-ab BASE_TREE=DIR ...``) uses an
existing checkout of the base — a ``git clone`` of the parent, say —
where worktrees cannot be created; it is left as it was found.

For every end-to-end metric it prints each side's median and quartiles,
how many pairs the change won (ties count for neither), and a verdict by
the rule of the choosing-metrics guide, section 8: a **gain** needs at
least nine tenths of the pairs *and* a median better by more than the
base's own quartile distance; a median past the metric's bound in
``BENCHMARK.json`` is **worse** when nine tenths of the pairs agree and
**unresolved** otherwise; anything else is **same**. Both sides run the
``bench_e2e/`` of their own tree, so compare only revisions that agree
on it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, Iterator, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(tree: str, command: List[str], workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One contract run in ``tree``; the last stdout line is the result."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{' '.join(argv)} failed in {tree}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _fmt(values: Tuple[float, float, float]) -> str:
    return "/".join(f"{v:.5g}" for v in values)


def judge(base: List[float], change: List[float], bound: float) -> Tuple[int, int, str]:
    """(pairs the change won, pairs it lost, verdict); lower is better."""
    wins = sum(c < b for b, c in zip(base, change))
    losses = sum(c > b for b, c in zip(base, change))
    (b_q1, b_med, b_q3), (_, c_med, _) = quartiles(base), quartiles(change)
    if wins >= 0.9 * len(base) and b_med - c_med > b_q3 - b_q1:
        return wins, losses, "gain"
    if c_med > b_med * (1.0 + bound):
        return wins, losses, "worse" if losses >= 0.9 * len(base) else "unresolved"
    return wins, losses, "same"


def report(spec: Dict[str, Any], base: List[Dict[str, Any]], change: List[Dict[str, Any]]) -> None:
    print(f"{'metric':18s} {'base q1/med/q3':>36s} {'change q1/med/q3':>36s}  won/lost  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        wins, losses, verdict = judge(b, c, metric["bound"])
        print(f"{name:18s} {_fmt(quartiles(b)):>36s} {_fmt(quartiles(c)):>36s}  "
              f"{wins:>3d}/{losses:<3d}   {verdict}  [{metric['unit']}]")
    for side, runs in (("base", base), ("change", change)):
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        print(f"{side}: failed {failed}/{attempted} operations, "
              f"output checks {'ok' if all(r['correct'] for r in runs) else 'FAILED'}")


@contextlib.contextmanager
def _worktree(rev: str) -> Iterator[str]:
    """``rev`` checked out into a temporary git worktree, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="ab_e2e_") as tmp:
        tree = os.path.join(tmp, "base")
        subprocess.run(["git", "worktree", "add", "--detach", tree, rev],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            yield tree
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT, check=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    base = p.add_mutually_exclusive_group(required=True)
    base.add_argument("--base", help="git revision to compare the working tree against")
    base.add_argument("--base-tree", metavar="DIR",
                      help="an existing checkout of the base revision (no git worktree is made)")
    names = [w["name"] for w in spec["workloads"]]
    p.add_argument("--workload", required=True, nargs="+", choices=names + ["all"],
                   help="one or more workloads; 'all' stands for every one not already named")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10, help="pairs of the first workload")
    p.add_argument("--other-pairs", type=int, default=4, help="pairs of every further workload")
    args = p.parse_args()
    workloads = list(dict.fromkeys(
        name for given in args.workload for name in (names if given == "all" else [given])
    ))

    if args.base_tree is None:
        checkout = _worktree(args.base)
    else:
        if os.path.samefile(args.base_tree, ROOT):
            p.error("--base-tree is the working tree itself")
        checkout = contextlib.nullcontext(os.path.abspath(args.base_tree))
    with checkout as base_tree:
        for workload in workloads:
            pairs = args.pairs if workload == workloads[0] else args.other_pairs
            runs: Dict[str, List[Dict[str, Any]]] = {base_tree: [], ROOT: []}
            for pair in range(pairs):
                for tree in (base_tree, ROOT) if pair % 2 == 0 else (ROOT, base_tree):
                    runs[tree].append(run_once(tree, spec["command"], workload,
                                               args.seed, spec["run_seconds"]))
                print(f"{workload}: pair {pair + 1}/{pairs} done", file=sys.stderr)
            print(f"{workload}, seed {args.seed}, {pairs} alternating pairs of "
                  f"{spec['run_seconds']} s: {args.base or base_tree} (base) vs working tree (change)")
            report(spec, runs[base_tree], runs[ROOT])
            print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
