"""Which ``src/`` functions the paper's results reach, held against a committed ledger.

``python tools/reach.py [--check]`` (``make reach``) runs each of :data:`DRIVERS` in a forked child
under ``sys.setprofile`` and prints a row per function no ``result`` driver reaches: ``path::qualname``
(a repeated def gets a ``'``), lines, and its verdict in ``reach_ledger.tsv``: ``tool`` (only a tool
entry reaches it), ``safety`` (error, fault or validation handling) or ``promote`` (a paper row should
run it). ``--check`` exits 1 on an unlisted row and on a stale entry (gone, reached by a result, or a
``tool`` that no tool reaches)."""

from __future__ import annotations

import ast
import importlib
import os
import pickle
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
load = importlib.import_module  # drivers import in the child, so that their imports are profiled too


def _bench_e2e():  # traced mode: the telemetry report and the Chrome export run as well
    for name in load("bench_e2e.workloads").WORKLOADS:
        with tempfile.TemporaryDirectory() as out:
            record = load("bench_e2e.section").run_section(name, 1, "traced", True, {"cpu_s": 0, "probe_s": 0}, out)
        if record["error"]:
            raise RuntimeError(record["error"])


#: (kind, name, driver): ``result`` drivers make what the benchmark, the chaos fleet, the paper's
#: rows and the examples show; ``tool`` drivers are the declared tool entries.
DRIVERS = [
    ("result", "bench_e2e WORKLOADS --quick, seed 1", _bench_e2e),
    ("result", "chaos scenario_names(), seed 1", lambda: [
        load("repro.chaos").run_scenario(name, seed=1) for name in load("repro.chaos").scenario_names()]),
    *(("result", f"tests/test_fidelity.py RUNS, part {part + 1}/4", lambda part=part: [
        run() for _, run in sorted(load("tests.test_fidelity").RUNS.items())[part::4]]) for part in range(4)),
    ("result", "examples/*.py",
     lambda: [runpy.run_path(str(path), run_name="__main__") for path in sorted(ROOT.glob("examples/*.py"))]),
    ("tool", "python -m repro.analysis mcheck --max-schedules 4", lambda: load(
        "repro.analysis.__main__").main(["mcheck", "--max-schedules", "4", "--no-shrink"])),
    ("tool", "python -m repro.bench report --chrome | ablation-reduce --json | table1 --arg ops=2", lambda: [
        load("repro.bench.__main__").main(argv) for argv in (
            ["report", "--chrome", os.devnull], ["ablation-reduce", "--json"], ["table1", "--arg", "ops=2"])]),
    ("tool", "trajectory SCENES", lambda: [scene() for scene in load("repro.bench.trajectory").SCENES.values()]),
]


def functions(root, skip=("repro/analysis/",)):
    """``{(file, co_firstlineno): (path::qualname, lines)}`` per def under ``root``."""
    found, root = {}, Path(root).resolve()
    def visit(node, rel, prefix, keys):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = f"{rel}::{prefix}{child.name}"
                while key in keys:
                    key += "'"
                keys.add(key)
                found[(str(root / rel), first)] = (key, child.end_lineno - first + 1)
            visit(child, rel, f"{prefix}{child.name}." if hasattr(child, "name") else prefix, keys)
    for path in sorted(root.rglob("*.py")):
        if not (rel := path.relative_to(root).as_posix()).startswith(skip):
            visit(ast.parse(path.read_text(), str(path)), rel, "", set())
    return found


def run(drivers):
    """``{kind: {(file, first line)}}`` that the drivers enter, each in a forked child."""
    reached, entered = {}, set()
    with tempfile.TemporaryDirectory() as tmp:
        for index, (kind, name, driver) in enumerate(drivers):
            out, pid = os.path.join(tmp, str(index)), os.fork()
            if pid == 0:  # the child: stdout to /dev/null, the driver under the profiler
                os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
                sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
                try:
                    driver()
                except BaseException:
                    sys.excepthook(*sys.exc_info())
                    os._exit(1)
                sys.setprofile(None)
                with open(out, "wb") as file:
                    pickle.dump({(os.path.realpath(c.co_filename), c.co_firstlineno) for c in entered}, file)
                os._exit(0)
            if os.waitpid(pid, 0)[1]:
                raise SystemExit(f"driver {name!r} failed")
            with open(out, "rb") as file:
                reached.setdefault(kind, set()).update(pickle.load(file))
    return reached


def audit(found, reached, ledger_path):
    """``(rows, problems)``: a row ``(key, lines, verdict, reason)`` per def no result reaches."""
    lines = Path(ledger_path).read_text().splitlines()
    ledger = {key: rest for key, *rest in (line.split("\t") for line in lines if line and line[0] != "#")}
    rows, problems, results, tools = [], [], reached.get("result", ()), reached.get("tool", ())
    for location, (key, size) in sorted(found.items(), key=lambda item: item[1]):
        verdict, reason = ledger.get(key, ("unlisted", ""))
        if location in results:
            problems += [f"stale: {key} is reached by a result"] if key in ledger else []
            continue
        if verdict not in ("tool", "safety", "promote") or verdict == "tool" and location not in tools:
            problems.append(f"{verdict}: {key} is reached by {'a tool' if location in tools else 'no driver'}")
        rows.append((key, size, verdict, reason))
    gone = ledger.keys() - {key for key, _ in found.values()}
    return rows, problems + [f"stale: {key} is gone" for key in sorted(gone)]


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    found = functions(ROOT / "src")
    rows, problems = audit(found, run(DRIVERS), ROOT / "tools" / "reach_ledger.tsv")
    print(*("\t".join(map(str, row)) for row in rows), sep="\n")
    print(f"# {len(found) - len(rows)}/{len(found)} reached; {len(rows)} not, {sum(r[1] for r in rows)} lines")
    print(*problems, sep="\n", file=sys.stderr)
    raise SystemExit(1 if problems and "--check" in sys.argv else 0)
