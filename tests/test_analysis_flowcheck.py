"""flowcheck: the protocol/lifecycle analyzer (repro.analysis.flowcheck).

Each FC rule gets at least one positive (known-bad fixture, exact rule
ids *and* line numbers asserted) and one negative (known-good fixture,
zero findings). The fixtures under tests/fixtures/flowcheck/ are
analysis inputs only — they are never imported or executed — and their
line layout is load-bearing: see the README there before editing.
"""

import json
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis.flowcheck import PASSES, run_check
from repro.analysis.incremental import run_changed
from repro.analysis.report import run_report

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "flowcheck"
SRC = Path(__file__).resolve().parents[1] / "src"


def check_fixture(name, select):
    return run_check([str(FIXTURES / name)], select=select, root=str(FIXTURES))


def check_source(tmp_path, source, select=None, name="mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_check([str(path)], select=select, root=str(tmp_path))


def rules_hit(report):
    return sorted({f.rule for f in report.unsuppressed()})


def lines_of(report, rule):
    return sorted(f.line for f in report.unsuppressed() if f.rule == rule)


# ---------------------------------------------------------------------------
# FC001: task leaks
def test_fc001_flags_dropped_and_unread_handles():
    report = check_fixture("fc001_bad.py", select=["FC001"])
    assert lines_of(report, "FC001") == [9, 15]


def test_fc001_quiet_on_joined_and_killed_handles():
    report = check_fixture("fc001_good.py", select=["FC001"])
    assert report.ok, "\n" + report.render()


# ---------------------------------------------------------------------------
# FC002: event lifecycle
def test_fc002_flags_never_fires_unbound_double_and_loop():
    report = check_fixture("fc002_bad.py", select=["FC002"])
    assert lines_of(report, "FC002") == [5, 10, 15, 20]


def test_fc002_quiet_on_escapes_callbacks_and_branch_arms():
    report = check_fixture("fc002_good.py", select=["FC002"])
    assert report.ok, "\n" + report.render()


# ---------------------------------------------------------------------------
# FC003: resource pairing
def test_fc003_flags_unprotected_window_leak_and_unpaired_export():
    report = check_fixture("fc003_bad.py", select=["FC003"])
    assert lines_of(report, "FC003") == [6, 11, 18]


def test_fc003_quiet_on_held_finally_and_split_lifecycles():
    report = check_fixture("fc003_good.py", select=["FC003"])
    assert report.ok, "\n" + report.render()


# ---------------------------------------------------------------------------
# FC004: lock order
def test_fc004_flags_cycle_and_reentrant_acquire():
    report = check_fixture("fc004_bad.py", select=["FC004"])
    assert lines_of(report, "FC004") == [7, 19]
    messages = {f.line: f.message for f in report.unsuppressed()}
    assert "cycle" in messages[7]
    assert "held" in messages[19]


def test_fc004_quiet_on_consistent_order_and_guard_idiom():
    report = check_fixture("fc004_good.py", select=["FC004"])
    assert report.ok, "\n" + report.render()


# ---------------------------------------------------------------------------
# FC005: collective divergence
def test_fc005_flags_rank_dependent_divergence():
    report = check_fixture("fc005_bad.py", select=["FC005"])
    assert lines_of(report, "FC005") == [6, 14, 22]


def test_fc005_quiet_on_symmetric_p2p_and_communicator_classes():
    report = check_fixture("fc005_good.py", select=["FC005"])
    assert report.ok, "\n" + report.render()


# ---------------------------------------------------------------------------
# FC006: RPC contract
def test_fc006_flags_orphan_arity_nongen_and_unknown():
    report = check_fixture("fc006_bad.py", select=["FC006"])
    assert lines_of(report, "FC006") == [8, 9, 10, 29]
    by_line = {f.line: f for f in report.unsuppressed()}
    assert by_line[8].severity == "warning"  # orphan registration
    assert by_line[9].severity == "error"  # arity mismatch
    assert by_line[10].severity == "error"  # non-generator handler
    assert by_line[29].severity == "error"  # unknown name at call site
    assert "missing" in by_line[29].message


def test_fc006_quiet_when_wrappers_forward_literal_names():
    report = check_fixture("fc006_good.py", select=["FC006"])
    assert report.ok, "\n" + report.render()


# ---------------------------------------------------------------------------
# FC007: tenant taint
def test_fc007_flags_raw_names_field_flows_joins_and_rejoins():
    report = check_fixture("fc007_bad.py", select=["FC007"])
    assert lines_of(report, "FC007") == [11, 17, 25, 36, 45]
    by_line = {f.line: f.message for f in report.unsuppressed()}
    # interprocedural flow through the constructor carries a witness path
    assert "witness" in by_line[36]
    assert "stores self.name" in by_line[36]
    assert "'#' join" in by_line[25]
    assert "re-joins" in by_line[45]


def test_fc007_quiet_on_qualified_names_and_identity_rejoin():
    report = check_fixture("fc007_good.py", select=["FC007"])
    assert report.ok, "\n" + report.render()


# ---------------------------------------------------------------------------
# FC008: epoch guard
def test_fc008_flags_post_yield_mutations_and_loop_backedge():
    report = check_fixture("fc008_bad.py", select=["FC008"])
    assert lines_of(report, "FC008") == [10, 17, 19, 25]
    by_line = {f.line: f.message for f in report.unsuppressed()}
    assert "after the yield at line 8" in by_line[10]
    assert "replica store" in by_line[17]
    assert "quota charges" in by_line[19]
    # the loop-carried case is only dirty via the back edge
    assert "after the yield at line 26" in by_line[25]


def test_fc008_quiet_on_revalidation_guards_and_handlers():
    report = check_fixture("fc008_good.py", select=["FC008"])
    assert report.ok, "\n" + report.render()


# ---------------------------------------------------------------------------
# FC009: quota balance
def test_fc009_flags_unprotected_yields_while_charged():
    report = check_fixture("fc009_bad.py", select=["FC009"])
    assert lines_of(report, "FC009") == [8, 14]
    for finding in report.unsuppressed():
        assert "pending" in finding.message


def test_fc009_quiet_on_compensated_and_post_commit_paths():
    report = check_fixture("fc009_good.py", select=["FC009"])
    assert report.ok, "\n" + report.render()


# ---------------------------------------------------------------------------
# FC010: metric contract
def test_fc010_flags_phantom_dead_and_double_counted_metrics():
    report = check_fixture("fc010_bad.py", select=["FC010"])
    assert lines_of(report, "FC010") == [7, 13, 20, 27, 36, 41]
    by_line = {f.line: f for f in report.unsuppressed()}
    assert by_line[7].severity == "error"  # phantom span consumer
    assert by_line[13].severity == "error"  # unregistered metric read
    assert by_line[20].severity == "warning"  # registered, never updated
    assert by_line[27].severity == "warning"  # double count per call
    assert "double-counted" in by_line[27].message
    assert by_line[36].severity == "warning"  # pulls a count nothing advances
    assert by_line[41].severity == "warning"  # held handle never updated


def test_fc010_quiet_on_matched_spans_and_wildcard_scopes():
    report = check_fixture("fc010_good.py", select=["FC010"])
    assert report.ok, "\n" + report.render()


# ---------------------------------------------------------------------------
# suppressions (shared grammar with detlint)
def test_line_suppression_with_reason(tmp_path):
    report = check_source(
        tmp_path,
        """
        def f(sim):
            ev = Event(sim)
            ev.succeed(1)
            ev.succeed(2)  # flowcheck: disable=FC002 -- exercising the double-fire guard
            yield ev
        """,
    )
    assert report.ok, "\n" + report.render()
    suppressed = [f for f in report.findings if f.suppressed]
    assert len(suppressed) == 1
    assert suppressed[0].rule == "FC002"
    assert suppressed[0].reason == "exercising the double-fire guard"


def test_suppression_without_reason_is_rejected(tmp_path):
    report = check_source(
        tmp_path,
        """
        def f(sim):
            ev = Event(sim)
            ev.succeed(1)
            ev.succeed(2)  # flowcheck: disable=FC002
            yield ev
        """,
    )
    # The finding stays unsuppressed AND the bad comment is flagged.
    assert "FC002" in rules_hit(report)
    assert "FC000" in rules_hit(report)


def test_select_limits_rules(tmp_path):
    report = check_source(
        tmp_path,
        """
        def f(sim):
            task = sim.spawn(g(sim))
            ev = Event(sim)
            yield ev
        """,
        select=["FC001"],
    )
    assert rules_hit(report) == ["FC001"]


# ---------------------------------------------------------------------------
# registry, report, and the tree itself
def test_pass_registry_is_complete():
    expected = [f"FC{i:03d}" for i in range(1, 11)]
    assert sorted(PASSES) == sorted(expected)
    for spec in PASSES.values():
        assert spec.slug
        assert spec.severity in {"error", "warning", "info"}


def test_combined_report_covers_both_tools(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        textwrap.dedent(
            """
            import time

            def f(sim):
                task = sim.spawn(g(sim))
                return time.time()
            """
        )
    )
    report = run_report([str(path)], root=str(tmp_path))
    payload = json.loads(report.to_json())
    assert payload["version"] == "sarif-lite-1"
    assert payload["ok"] is False
    tools = {f["tool"] for f in payload["findings"]}
    assert tools == {"detlint", "flowcheck"}


def test_report_emits_sarif_2_1_0(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        textwrap.dedent(
            """
            import time

            def f(sim):
                task = sim.spawn(g(sim))
                t0 = time.time()  # detlint: disable=DET001 -- test wall time
                return t0
            """
        )
    )
    report = run_report([str(path)], root=str(tmp_path))
    sarif = json.loads(report.to_sarif())
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    # both analyzers' full rule tables ride along as metadata
    assert {"DET001", "FC001", "FC007", "FC010"} <= rule_ids
    by_rule = {r["ruleId"]: r for r in run["results"]}
    leak = by_rule["FC001"]
    region = leak["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 5
    assert region["startColumn"] >= 1
    assert "suppressions" not in leak
    wall = by_rule["DET001"]
    (suppression,) = wall["suppressions"]
    assert suppression["kind"] == "inSource"
    assert suppression["justification"] == "test wall time"


def test_report_dedupes_and_counts_suppressions_per_rule(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        textwrap.dedent(
            """
            import time

            def f():
                return time.time()  # detlint: disable=DET001 -- test wall time
            """
        )
    )
    once = run_report([str(path)], root=str(tmp_path))
    assert once.deduped == 0
    assert once.suppressed_by_rule() == {"DET001": 1}
    payload = json.loads(once.to_json())
    assert payload["suppressed_by_rule"] == {"DET001": 1}
    # the same file listed twice produces fingerprint-identical findings:
    # the merged report keeps one and counts the rest
    twice = run_report([str(path), str(path)], root=str(tmp_path))
    assert twice.findings == once.findings
    assert twice.deduped >= 1


# ---------------------------------------------------------------------------
# incremental (--changed) mode
def _git(repo, *argv):
    subprocess.run(
        ["git", "-c", "user.email=t@t.invalid", "-c", "user.name=t", *argv],
        cwd=str(repo),
        check=True,
        capture_output=True,
    )


def test_changed_mode_reports_only_the_diff_closure(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.py").write_text(
        textwrap.dedent(
            """
            def helper(sim):
                task = sim.spawn(g(sim))
            """
        )
    )
    (src / "b.py").write_text("def entry(sim):\n    return helper(sim)\n")
    (src / "c.py").write_text(
        textwrap.dedent(
            """
            def unrelated(sim):
                task = sim.spawn(h(sim))
            """
        )
    )
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")

    clean = run_changed(ref="HEAD", repo_root=str(tmp_path))
    assert clean.ok and clean.changed == []

    (src / "b.py").write_text("def entry(sim):\n    return helper(sim)  # x\n")
    result = run_changed(ref="HEAD", repo_root=str(tmp_path))
    assert result.changed == ["src/b.py"]
    # a.py is pulled in through the b -> helper call edge; c.py is not
    assert set(result.closure) == {str(Path("src/a.py")), str(Path("src/b.py"))}
    assert {f.path for f in result.report.unsuppressed()} == {
        str(Path("src/a.py"))
    }
    assert not result.ok


def test_tree_is_clean():
    """The acceptance gate: zero unsuppressed flowcheck findings over
    src/, and every suppression carries a reason."""
    report = run_check([str(SRC)], root=str(SRC.parent))
    assert report.ok, "\n" + report.render()
    for finding in report.findings:
        if finding.suppressed:
            assert finding.reason


# ---------------------------------------------------------------------------
# seeding regressions: re-introducing the bug classes the Isoguard passes
# were built for into a scratch copy of the real tree must be caught.
def _scratch_tree(tmp_path, rel, mutate):
    """Copy src/ to a scratch dir and mutate one core file in place."""
    scratch = tmp_path / "src"
    shutil.copytree(SRC, scratch)
    target = scratch / "repro" / "core" / rel
    target.write_text(mutate(target.read_text()))
    return scratch, target


def _scratch_lines(scratch, select, rel):
    report = run_check([str(scratch)], select=select, root=str(scratch.parent))
    return [
        f.line
        for f in report.unsuppressed()
        if f.rule == select[0] and f.path.endswith(rel)
    ]


def test_seeded_unqualified_wire_name_sink_is_caught(tmp_path):
    seed = textwrap.dedent(
        """

        def _seeded_raw_activate(client, server, wire_name):
            raw = base_name(wire_name)
            yield from client.margo.provider_call(  # seeded-sink
                server, "colza", "activate", {"pipeline": raw}
            )
        """
    )
    scratch, target = _scratch_tree(tmp_path, "client.py", lambda s: s + seed)
    text = target.read_text().splitlines()
    expected = 1 + next(i for i, l in enumerate(text) if "# seeded-sink" in l)
    assert _scratch_lines(scratch, ["FC007"], "client.py") == [expected]


def test_seeded_unvalidated_epoch_write_is_caught(tmp_path):
    # Revert the deactivate fix: drop the epoch re-check guarding the
    # replica drop and quota release after the deactivate yield.
    scratch, target = _scratch_tree(
        tmp_path,
        "provider.py",
        lambda s: s.replace("if key not in self._active:\n", "if True:\n"),
    )
    text = target.read_text().splitlines()
    guard = next(i for i, l in enumerate(text) if l.strip() == "if True:")
    drop = 1 + next(
        i
        for i, l in enumerate(text)
        if i > guard and "self.replicas.drop_iteration" in l
    )
    lines = _scratch_lines(scratch, ["FC008"], "provider.py")
    assert drop in lines


def test_seeded_unreleased_quota_charge_is_caught(tmp_path):
    seed = textwrap.dedent(
        """

        def _seeded_adoption_charge(provider, tenant, name, iteration, sim):
            provider.tenants.charge(tenant, name, iteration, 0, 100)
            yield sim.timeout(1)  # seeded-yield
        """
    )
    scratch, target = _scratch_tree(
        tmp_path, "replication.py", lambda s: s + seed
    )
    text = target.read_text().splitlines()
    expected = 1 + next(i for i, l in enumerate(text) if "# seeded-yield" in l)
    assert _scratch_lines(scratch, ["FC009"], "replication.py") == [expected]
