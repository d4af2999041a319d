"""Colzacheck: the schedule explorer (repro.analysis.mcheck).

Four layers of evidence:

- unit: the exploration driver replays prefixes exactly, the FIFO
  default stays bit-identical to the stock scheduler, schedule files
  round-trip, and the strict canonicalizer rejects sloppy payloads;
- toy scenarios: a FIFO-clean order-dependent bug that only a non-FIFO
  interleaving exposes must be *found*, minimized, and replayed to the
  identical violation digest — including one reachable only through
  the ``-1`` postponement command (the DPOR backtracking move), one
  whose racy steps ran before any footprint source was attached, and
  one a random walk finds;
- random walks: the same walk seed replays the same run, different
  seeds move the schedule, and every walk of the whole-run scenarios
  takes non-FIFO choices while their guarantees hold;
- seeded regressions: re-introducing two real, previously-fixed races
  into a scratch copy of the tree (the deactivate epoch re-check and
  the stage quota uncharge-on-abort) must make ``python -m
  repro.analysis mcheck`` fail within the default budget and write a
  counterexample whose replay reproduces the same failure.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.mcheck import (
    MCHECK_SCENARIOS,
    McheckOutcome,
    Schedule,
    ScheduleController,
    explore,
    random_walk,
    replay,
    run_schedule,
    scenario_names,
)
from repro.analysis.mcheck.sched import SCHED_FORMAT, invariant_digest
from repro.analysis.simtsan import SimTSan, tracked
from repro.sim import Simulation, controlled_ties

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
    with controlled_ties(controller):
        sim = Simulation(seed=11)
    controller.arm()
    _tie_heavy(sim)

    assert sim.trace.digest() == base.trace.digest()


def test_disarmed_controller_records_nothing():
    controller = ScheduleController(())
    sim = Simulation(seed=11, controller=controller)
    _tie_heavy(sim)  # never armed
    assert controller.choices == []
    assert controller.steps == []


# ---------------------------------------------------------------------------
# toy scenarios: FIFO-clean bugs only exploration can reach
def _toy(seed, controller, hops, blind=False):
    """Writer sets ``x`` at t=1; reader hops ``hops`` zero-delay yields
    then requires ``x`` present. FIFO always runs the write first, so
    the bug is invisible until the explorer reorders the burst.
    ``blind`` attaches the footprint source only after the burst."""
    sim = Simulation(seed=seed, controller=controller)
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
    if blind:
        sim.run(until=2.0)
    controller.attach(SimTSan(sim).install())
    sim.run()
    controller.disarm()
    return McheckOutcome(
        violations=violations, digest=sim.trace.digest(), payload={}
    )


@pytest.fixture
def toy_scenarios():
    MCHECK_SCENARIOS["toy_flip"] = lambda seed, ctl: _toy(seed, ctl, 0)
    MCHECK_SCENARIOS["toy_postpone"] = lambda seed, ctl: _toy(seed, ctl, 5)
    MCHECK_SCENARIOS["toy_blind"] = lambda seed, ctl: _toy(seed, ctl, 0, blind=True)
    yield
    for name in ("toy_flip", "toy_postpone", "toy_blind"):
        MCHECK_SCENARIOS.pop(name, None)


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


def test_pruning_explores_steps_it_could_not_observe(toy_scenarios):
    # The racy burst runs before SimTSan is attached: its steps have no
    # footprints because nobody watched, not because they touch
    # nothing, so no flip across them may be pruned as independent.
    record = run_schedule("toy_blind", 0, ())
    assert record.ok and record.controller.steps
    assert not any(step.observed for step in record.controller.steps)
    pruned = explore("toy_blind", 0, max_schedules=32)
    unpruned = explore("toy_blind", 0, max_schedules=32, prune=False)
    assert not unpruned.ok
    assert not pruned.ok, pruned.render()
    assert (
        pruned.counterexample.violation_digest
        == unpruned.counterexample.violation_digest
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


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError, match="unknown mcheck scenario"):
        run_schedule("no_such_scenario", 0)


def test_all_scenarios_are_registered():
    assert scenario_names() == [
        "2pc_activation",
        "abort_during_recovery",
        "owner_crash_adoption",
        "prepare_first_no",
        "quota_backpressure",
        "resilient_iterations",
        "swim_convergence",
        "tenant_churn",
    ]


def test_registry_has_the_advertised_scenarios():
    # the two whole-run scenarios CI walks with ``mcheck --walk``
    assert {"resilient_iterations", "swim_convergence"} <= set(MCHECK_SCENARIOS)


# ---------------------------------------------------------------------------
# the counterexample file format
def test_schedule_roundtrip(tmp_path):
    schedule = Schedule(
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
    assert doc["format"] == SCHED_FORMAT and doc["tool"] == "mcheck"
    assert doc["choices"] == [0, 2, -1]


def test_schedule_rejects_foreign_documents():
    with pytest.raises(ValueError, match="not a schedule file"):
        Schedule.from_json({"format": "something-else"})
    with pytest.raises(ValueError, match="unknown schedule tool"):
        Schedule.from_json(
            {"format": SCHED_FORMAT, "tool": "hammer", "scenario": "x", "seed": 0}
        )


def test_fuzz_schedules_are_rejected_naming_the_removal():
    doc = {"format": SCHED_FORMAT, "tool": "fuzz", "scenario": "swim_convergence", "seed": 0}
    with pytest.raises(ValueError, match="fuzzer was removed"):
        Schedule.from_json(doc)


def test_stale_choice_vector_flags_divergence(toy_scenarios):
    schedule = Schedule(
        scenario="toy_flip",
        seed=0,
        choices=(9, 9, 9),  # indices no live frontier can satisfy
        violation_digest="00" * 32,
    )
    result = replay(schedule)
    assert result.diverged
    assert not result.matches


def test_a_clean_pin_requires_a_clean_replay(toy_scenarios):
    # Pin the bug's schedule as clean: the replay violates, so it must
    # not match (and ``replay`` must exit non-zero).
    found = explore("toy_flip", 0, max_schedules=32).schedule()
    pinned = dataclasses.replace(found, violation_digest=None, violations=())
    result = replay(pinned)
    assert result.violations == ("reader observed x missing",)
    assert not result.matches, result.render()
    clean = dataclasses.replace(pinned, choices=())
    assert replay(clean).matches


# ---------------------------------------------------------------------------
# random walks: the second strategy of the same controller
def test_same_walk_seed_replays_the_same_run():
    one = run_schedule("resilient_iterations", 0, walk=3)
    two = run_schedule("resilient_iterations", 0, walk=3)
    assert one.taken == two.taken and one.prefix == one.taken
    assert one.digest == two.digest
    assert one.ok, one.violations
    # The taken vector alone replays it: a walk is an ordinary schedule.
    assert run_schedule("resilient_iterations", 0, one.taken).digest == one.digest


def test_walk_seeds_move_the_schedule():
    report = random_walk("resilient_iterations", 0, walks=5)
    assert report.ok, report.render()
    assert report.runs == 5 and report.distinct_traces == 5


@pytest.mark.parametrize("scenario", ["resilient_iterations", "swim_convergence"])
def test_every_walk_takes_a_non_fifo_choice_and_keeps_the_guarantees(scenario):
    for walk in range(5):
        record = run_schedule(scenario, 0, walk=walk)
        assert record.ok, record.violations
        assert any(record.taken), f"walk {walk} took only FIFO heads"


def test_walk_finds_shrinks_and_replays_the_toy_bug(toy_scenarios, tmp_path):
    report = random_walk("toy_flip", 0, walks=8)
    assert not report.ok
    schedule = report.schedule()
    assert schedule.violations == ("reader observed x missing",)
    assert len(schedule.choices) <= len(report.counterexample.taken)
    path = tmp_path / "walk.sched"
    schedule.save(str(path))
    result = replay(Schedule.load(str(path)))
    assert result.matches, result.render()


# ---------------------------------------------------------------------------
# strict canonicalization (no more json.dumps(default=str))
def test_invariant_digest_is_order_insensitive():
    assert invariant_digest({"a": 1, "b": [1, 2]}) == invariant_digest(
        {"b": [1, 2], "a": 1}
    )


def test_invariant_digest_is_canonical():
    a = invariant_digest({"b": 2, "a": [1, 2]})
    b = invariant_digest({"a": [1, 2], "b": 2})
    assert a == b
    assert a != invariant_digest({"a": [2, 1], "b": 2})  # list order is content


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
