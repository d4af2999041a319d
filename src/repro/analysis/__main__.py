"""CLI for the analysis toolchain.

::

    python -m repro.analysis lint [paths...] [--json] [--select DET001,DET003]
    python -m repro.analysis check [paths...] [--select FC001,FC010] [--show-suppressed]
    python -m repro.analysis check --changed [REF]
    python -m repro.analysis report [paths...] [--json | --sarif]
    python -m repro.analysis mcheck [--scenario NAME] [--seed N] [--max-schedules N] [--max-flips N] [--walk N] [--out DIR] [--json]
    python -m repro.analysis replay FILE [FILE...]

``lint`` (detlint) and ``check`` (flowcheck) exit 1 if any unsuppressed
finding remains; ``check --changed REF`` restricts the *reported* file
set to the callgraph closure of the git diff against REF (default HEAD)
while still analyzing the whole tree; ``report`` merges both into one
document — SARIF-lite JSON by default, real SARIF 2.1.0 with
``--sarif`` — and exits 1 under the same condition; ``mcheck``
systematically explores same-timestamp interleavings of a scenario's
racy window (or, with ``--walk N``, samples N seeded random walks of
it) and exits 1 if any run violates an invariant (the minimized
counterexample is written to ``--out``); ``replay`` re-executes
``.sched`` counterexamples and exits 1 unless every one reproduces its
recorded failure identity.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.detlint import RULES, run_lint


def _default_paths(args: argparse.Namespace) -> list:
    return args.paths or [str(Path(__file__).resolve().parents[2])]  # src/


def _cmd_lint(args: argparse.Namespace) -> int:
    select = args.select.split(",") if args.select else None
    report = run_lint(_default_paths(args), select=select, root=args.root)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.flowcheck import run_check

    select = args.select.split(",") if args.select else None
    if args.changed is not None:
        from repro.analysis.incremental import run_changed

        try:
            result = run_changed(ref=args.changed, select=select)
        except RuntimeError as exc:
            print(f"flowcheck --changed: {exc}", file=sys.stderr)
            return 2
        print(result.render(show_suppressed=args.show_suppressed))
        return 0 if result.ok else 1
    report = run_check(_default_paths(args), select=select, root=args.root)
    print(report.render(show_suppressed=args.show_suppressed))
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import run_report

    report = run_report(_default_paths(args), root=args.root)
    print(report.to_sarif() if args.sarif else report.to_json())
    return 0 if report.ok else 1


def _cmd_mcheck(args: argparse.Namespace) -> int:
    from repro.analysis.mcheck import explore, random_walk, scenario_names

    if args.list:
        for name in scenario_names():
            print(name)
        return 0
    log = (lambda msg: print(f"  {msg}", file=sys.stderr)) if args.verbose else None
    exit_code = 0
    for scenario in args.scenario or scenario_names():
        if args.walk:
            report = random_walk(
                scenario, seed=args.seed, walks=args.walk,
                do_shrink=not args.no_shrink, log=log,
            )
        else:
            report = explore(
                scenario,
                seed=args.seed,
                max_schedules=args.max_schedules,
                max_flips=args.max_flips,
                prune=not args.no_prune,
                do_shrink=not args.no_shrink,
                log=log,
            )
        if args.json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        else:
            print(report.render())
        if not report.ok:
            exit_code = 1
            schedule = report.schedule()
            if args.out and schedule is not None:
                out = Path(args.out)
                out.mkdir(parents=True, exist_ok=True)
                path = out / f"mcheck-{scenario}-s{args.seed}.sched"
                schedule.save(str(path))
                print(f"  counterexample written: {path}", file=sys.stderr)
    return exit_code


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.analysis.mcheck import Schedule, replay

    exit_code = 0
    for path in args.files:
        try:
            schedule = Schedule.load(path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"replay: {path}: {exc}", file=sys.stderr)
            return 2
        result = replay(schedule)
        if args.json:
            print(
                json.dumps(
                    {
                        "file": path,
                        "scenario": schedule.scenario,
                        "matches": result.matches,
                        "diverged": result.diverged,
                        "violations": list(result.violations),
                        "violation_digest": result.violation_digest,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(result.render())
        if not result.matches:
            exit_code = 1
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="determinism analysis toolchain (DESIGN §9)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the detlint AST rules")
    lint.add_argument("paths", nargs="*", help="files/directories (default: src tree)")
    lint.add_argument("--json", action="store_true", help="machine-readable output")
    lint.add_argument(
        "--select", help="comma-separated rule ids (default: all %d)" % len(RULES)
    )
    lint.add_argument("--root", help="path findings are reported relative to")
    lint.set_defaults(fn=_cmd_lint)

    check = sub.add_parser("check", help="run the flowcheck dataflow passes")
    check.add_argument("paths", nargs="*", help="files/directories (default: src tree)")
    check.add_argument("--select", help="comma-separated rule ids (FC001..FC010)")
    check.add_argument("--root", help="path findings are reported relative to")
    check.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        metavar="REF",
        help="report only the callgraph closure of the git diff against REF"
        " (default HEAD); the whole tree is still analyzed for soundness",
    )
    check.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings (with reasons) in the output",
    )
    check.set_defaults(fn=_cmd_check)

    report = sub.add_parser(
        "report", help="merged detlint+flowcheck SARIF-lite JSON report"
    )
    report.add_argument(
        "paths", nargs="*", help="files/directories (default: src tree)"
    )
    report.add_argument("--root", help="path findings are reported relative to")
    report.add_argument(
        "--json", action="store_true", help="SARIF-lite JSON (the default)"
    )
    report.add_argument(
        "--sarif",
        action="store_true",
        help="emit SARIF 2.1.0 (for github code-scanning upload)",
    )
    report.set_defaults(fn=_cmd_report)

    mcheck = sub.add_parser(
        "mcheck",
        help="explore schedule interleavings, or sample them with --walk (Colzacheck)",
    )
    mcheck.add_argument(
        "--scenario",
        action="append",
        help="mcheck scenario name (repeatable; default: all). See --list.",
    )
    mcheck.add_argument("--seed", type=int, default=0, help="scenario seed")
    mcheck.add_argument(
        "--max-schedules", type=int, default=64, help="execution budget (default 64)"
    )
    mcheck.add_argument(
        "--max-flips",
        type=int,
        default=3,
        help="preemption bound: max non-FIFO choices per schedule (default 3)",
    )
    mcheck.add_argument(
        "--walk",
        type=int,
        default=0,
        metavar="N",
        help="sample N seeded random walks (seeds 0..N-1) instead of the DFS",
    )
    mcheck.add_argument(
        "--no-prune",
        action="store_true",
        help="disable DPOR equivalence pruning (explore every sibling)",
    )
    mcheck.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip counterexample minimization",
    )
    mcheck.add_argument(
        "--out",
        metavar="DIR",
        help="write minimized counterexamples as .sched files under DIR",
    )
    mcheck.add_argument("--json", action="store_true", help="machine-readable output")
    mcheck.add_argument(
        "--verbose", action="store_true", help="log every executed schedule"
    )
    mcheck.add_argument("--list", action="store_true", help="list mcheck scenarios")
    mcheck.set_defaults(fn=_cmd_mcheck)

    rep = sub.add_parser(
        "replay", help="re-execute .sched counterexamples"
    )
    rep.add_argument("files", nargs="+", help=".sched files to replay")
    rep.add_argument("--json", action="store_true", help="machine-readable output")
    rep.set_defaults(fn=_cmd_replay)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
