"""``tools/reach.py`` on a fixture package: the ledger check reports an unreached function
the ledger does not list and every stale entry, and stays silent about the entries that hold."""

import importlib.util
import pathlib
import runpy

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "reach"


def _reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_check_reports_unlisted_and_stale_entries_only(monkeypatch):
    reach = _reach()
    monkeypatch.syspath_prepend(str(FIXTURE))
    found = reach.functions(FIXTURE)
    reached = reach.run([
        ("result", "driver.py", lambda: runpy.run_path(str(FIXTURE / "driver.py"))),
        ("tool", "a tool", lambda: __import__("reachpkg.mod", fromlist=["tooled"]).tooled()),
    ])
    rows, problems = reach.audit(found, reached, FIXTURE / "ledger.tsv")

    assert problems == [
        "unlisted: reachpkg/mod.py::unlisted is reached by no driver",
        "stale: reachpkg/mod.py::used is reached by a result",
        "stale: reachpkg/mod.py::gone is gone",
    ]
    assert [(key, verdict) for key, _lines, verdict, _reason in rows] == [
        ("reachpkg/mod.py::listed", "safety"),
        ("reachpkg/mod.py::tooled", "tool"),
        ("reachpkg/mod.py::unlisted", "unlisted"),
    ]


def test_a_tool_entry_no_tool_reaches_is_stale(monkeypatch):
    reach = _reach()
    monkeypatch.syspath_prepend(str(FIXTURE))
    reached = reach.run([("result", "driver.py", lambda: runpy.run_path(str(FIXTURE / "driver.py")))])
    _rows, problems = reach.audit(reach.functions(FIXTURE), reached, FIXTURE / "ledger.tsv")
    assert "tool: reachpkg/mod.py::tooled is reached by no driver" in problems
