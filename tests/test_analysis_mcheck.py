"""Colzacheck: the DPOR-style systematic model checker (repro.analysis.mcheck).

Three layers of evidence:

- unit: the controlled tie-break driver replays prefixes exactly, the
  FIFO default stays bit-identical to the stock scheduler, schedule
  files round-trip, and the strict canonicalizer rejects sloppy
  payloads;
- toy scenarios: a FIFO-clean order-dependent bug that only a non-FIFO
  interleaving exposes must be *found*, minimized, and replayed to the
  identical violation digest — including one reachable only through
  the ``-1`` postponement command (the DPOR backtracking move);
- seeded regressions: re-introducing two real, previously-fixed races
  into a scratch copy of the tree (the deactivate epoch re-check and
  the stage quota uncharge-on-abort) must make ``python -m
  repro.analysis mcheck`` fail within the default budget and write a
  counterexample whose replay reproduces the same failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.fuzz import invariant_digest, outcome_schedule, run_fuzz_one
from repro.analysis.mcheck import (
    MCHECK_SCENARIOS,
    McheckOutcome,
    Schedule,
    ScheduleController,
    explore,
    replay,
    run_schedule,
    scenario_names,
)
from repro.analysis.mcheck.sched import SCHED_FORMAT
from repro.analysis.simtsan import SimTSan, tracked
from repro.sim import Controlled, Simulation, tie_strategy

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# the FIFO default must not disturb determinism
def _tie_heavy(sim):
    """A workload with same-timestamp ties at every step."""
    table = {}

    def hopper(sim, name, hops):
        for i in range(hops):
            yield sim.timeout(1.0)
            table[name] = i

    for k in range(4):
        sim.spawn(hopper(sim, f"hop-{k}", 5), name=f"hop-{k}")
    sim.run()
    return table


def test_controlled_empty_prefix_is_bit_identical_to_fifo():
    base = Simulation(seed=11)
    _tie_heavy(base)

    controller = ScheduleController(())
    with tie_strategy(Controlled(controller)):
        sim = Simulation(seed=11)
    controller.arm()
    _tie_heavy(sim)

    assert sim.trace.digest() == base.trace.digest()


def test_disarmed_controller_records_nothing():
    controller = ScheduleController(())
    with tie_strategy(Controlled(controller)):
        sim = Simulation(seed=11)
    _tie_heavy(sim)  # never armed
    assert controller.choices == []
    assert controller.steps == []


# ---------------------------------------------------------------------------
# toy scenarios: FIFO-clean bugs only exploration can reach
def _toy(seed, controller, hops):
    """Writer sets ``x`` at t=1; reader hops ``hops`` zero-delay yields
    then requires ``x`` present. FIFO always runs the write first, so
    the bug is invisible until the explorer reorders the burst."""
    with tie_strategy(Controlled(controller)):
        sim = Simulation(seed=seed)
    tsan = SimTSan(sim).install()
    controller.attach(tsan)
    table = tracked(sim, {}, label="toy.table")
    violations = []

    def writer(sim):
        yield sim.timeout(1.0)
        table["x"] = 1

    def reader(sim):
        yield sim.timeout(1.0)
        for _ in range(hops):
            yield sim.timeout(0)
        if "x" not in table:
            violations.append("reader observed x missing")

    controller.arm()
    sim.spawn(writer(sim), name="toy-writer")
    sim.spawn(reader(sim), name="toy-reader")
    sim.run()
    controller.disarm()
    return McheckOutcome(
        violations=violations, digest=sim.trace.digest(), payload={}
    )


@pytest.fixture
def toy_scenarios():
    MCHECK_SCENARIOS["toy_flip"] = lambda seed, ctl: _toy(seed, ctl, 0)
    MCHECK_SCENARIOS["toy_postpone"] = lambda seed, ctl: _toy(seed, ctl, 5)
    yield
    MCHECK_SCENARIOS.pop("toy_flip", None)
    MCHECK_SCENARIOS.pop("toy_postpone", None)


def test_toy_bug_is_fifo_clean(toy_scenarios):
    record = run_schedule("toy_flip", 0, ())
    assert record.ok
    assert not record.diverged


def test_toy_flip_bug_found_minimized_and_replayable(toy_scenarios):
    report = explore("toy_flip", 0, max_schedules=32)
    assert not report.ok
    assert report.dependent_pairs  # the write/read pair was exercised
    schedule = report.schedule()
    assert schedule.violations == ("reader observed x missing",)
    assert any(c != 0 for c in schedule.choices)  # a genuine reorder
    result = replay(schedule)
    assert result.matches, result.render()
    assert result.violation_digest == schedule.violation_digest


def test_toy_postpone_bug_needs_the_sleep_command(toy_scenarios):
    # Five footprint-free reader hops separate the write from the read:
    # crossing them with adjacent flips would need five preemptions
    # (over the bound of 3), so only the -1 postponement command can
    # push the write past the read.
    report = explore("toy_postpone", 0, max_schedules=32, max_flips=3)
    assert not report.ok
    schedule = report.schedule()
    assert -1 in schedule.choices
    assert replay(schedule).matches


def test_explore_without_pruning_finds_the_same_bug(toy_scenarios):
    pruned = explore("toy_flip", 0, max_schedules=32)
    blind = explore("toy_flip", 0, max_schedules=32, prune=False)
    assert not pruned.ok and not blind.ok
    assert (
        pruned.counterexample.violation_digest
        == blind.counterexample.violation_digest
    )


# ---------------------------------------------------------------------------
# the clean tree explores clean
@pytest.mark.parametrize("scenario", ["quota_backpressure", "tenant_churn", "prepare_first_no"])
def test_clean_tree_scenario_explores_clean(scenario):
    report = explore(scenario, 0, max_schedules=16)
    assert report.ok, report.render()
    assert report.runs >= 2  # exploration actually happened
    assert report.dependent_pairs  # and exercised real conflicts
    assert report.pruned > 0  # and the DPOR pruning did work


def test_all_scenarios_are_registered():
    assert scenario_names() == [
        "2pc_activation",
        "abort_during_recovery",
        "owner_crash_adoption",
        "prepare_first_no",
        "quota_backpressure",
        "tenant_churn",
    ]


# ---------------------------------------------------------------------------
# the counterexample file format
def test_schedule_roundtrip(tmp_path):
    schedule = Schedule(
        tool="mcheck",
        scenario="toy",
        seed=3,
        choices=(0, 2, -1),
        violation_digest="ab" * 32,
        violations=("boom",),
        meta={"runs": 7},
    )
    path = tmp_path / "ce.sched"
    schedule.save(str(path))
    loaded = Schedule.load(str(path))
    assert loaded == schedule
    doc = json.loads(path.read_text())
    assert doc["format"] == SCHED_FORMAT
    assert doc["choices"] == [0, 2, -1]


def test_schedule_rejects_foreign_documents():
    with pytest.raises(ValueError, match="not a schedule file"):
        Schedule.from_json({"format": "something-else"})
    with pytest.raises(ValueError, match="unknown schedule tool"):
        Schedule.from_json(
            {"format": SCHED_FORMAT, "tool": "hammer", "scenario": "x", "seed": 0}
        )


def test_stale_choice_vector_flags_divergence(toy_scenarios):
    schedule = Schedule(
        tool="mcheck",
        scenario="toy_flip",
        seed=0,
        choices=(9, 9, 9),  # indices no live frontier can satisfy
        violation_digest="00" * 32,
    )
    result = replay(schedule)
    assert result.diverged
    assert not result.matches


def test_fuzz_counterexamples_share_the_format(tmp_path):
    outcome = run_fuzz_one("swim_convergence", 0, 1)
    schedule = outcome_schedule(outcome)
    assert schedule.tool == "fuzz"
    assert schedule.fuzz_seed == 1
    path = tmp_path / "fuzz.sched"
    schedule.save(str(path))
    result = replay(Schedule.load(str(path)))
    assert result.matches, result.render()
    assert result.invariant_digest == outcome.invariant_digest


# ---------------------------------------------------------------------------
# strict canonicalization (no more json.dumps(default=str))
def test_invariant_digest_is_order_insensitive():
    assert invariant_digest({"a": 1, "b": [1, 2]}) == invariant_digest(
        {"b": [1, 2], "a": 1}
    )


def test_invariant_digest_rejects_non_canonical_payloads():
    class Opaque:
        pass

    with pytest.raises(TypeError):
        invariant_digest({"x": Opaque()})


# ---------------------------------------------------------------------------
# seeded regressions: the races the checker was built for, re-introduced
# into a scratch copy of the tree, must be caught and replay exactly.
def _seeded_tree(tmp_path, mutate):
    scratch = tmp_path / "src"
    shutil.copytree(SRC, scratch)
    target = scratch / "repro" / "core" / "provider.py"
    target.write_text(mutate(target.read_text()))
    return scratch


def _run_cli(scratch, *argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(scratch), "PATH": "/usr/bin:/bin"},
        timeout=300,
    )


def _assert_caught_and_replayed(tmp_path, scratch, scenario):
    out = tmp_path / "ce"
    found = _run_cli(
        scratch, "mcheck", "--scenario", scenario, "--out", str(out)
    )
    assert found.returncode == 1, found.stdout + found.stderr
    assert "VIOLATION" in found.stdout
    sched = out / f"mcheck-{scenario}-s0.sched"
    assert sched.exists()
    replayed = _run_cli(scratch, "replay", str(sched))
    assert replayed.returncode == 0, replayed.stdout + replayed.stderr
    assert "reproduced recorded failure" in replayed.stdout


@pytest.mark.slow
def test_seeded_epoch_guard_revert_is_caught(tmp_path):
    # Revert the deactivate fix: drop the epoch re-check guarding the
    # replica drop and quota release after the deactivate yield, so a
    # flush overlapping a fresh activation releases the new epoch's
    # charges.
    scratch = _seeded_tree(
        tmp_path,
        lambda s: s.replace(
            "            if key not in self._active:\n",
            "            if True:\n",
        ),
    )
    _assert_caught_and_replayed(tmp_path, scratch, "2pc_activation")


@pytest.mark.slow
def test_seeded_uncharge_on_abort_revert_is_caught(tmp_path):
    # Drop the stage handler's quota uncharge on abort: a stage that
    # races a deactivate leaks its charge, and the quota probe finds
    # the phantom occupying the freed slot.
    scratch = _seeded_tree(
        tmp_path,
        lambda s: s.replace(
            "        except BaseException:\n"
            "            self.tenants.uncharge(tenant, name, iteration, block_id)\n"
            "            raise\n",
            "        except BaseException:\n            raise\n",
        ),
    )
    _assert_caught_and_replayed(tmp_path, scratch, "quota_backpressure")
