"""Schedule exploration: DPOR-style DFS over choice prefixes, and
seeded random walks.

The state space is the tree of *choice vectors*: at every armed choice
point (two or more live events at the same timestamp) the driver takes
an index; the empty vector is the FIFO schedule, and flipping position
``i`` to ``k`` means "run FIFO until choice ``i``, fire candidate ``k``
there, FIFO afterwards". The explorer walks this tree depth-first:

1. run the scenario under a :class:`~repro.analysis.mcheck.driver.
   ScheduleController` replaying the current prefix;
2. if the run violated an invariant, minimize and return the
   counterexample (fail-fast);
3. otherwise *expand*: for every free choice point (beyond the forced
   prefix) and every unchosen candidate, push the sibling prefix —
   unless it is pruned.

Two sibling moves are generated at every free choice point:

- **flips** (``k >= 1``): fire candidate ``k`` instead of the FIFO
  head, pulling ``k``'s task *earlier* past the steps that, in this
  run, executed between the choice point and ``k``'s own execution;
- **postponement** (``-1``): put the FIFO head to sleep — it is
  skipped at subsequent choice points until it is the last candidate
  standing at its timestamp — pushing its task *later* past everything
  else in the burst. This is the DPOR backtracking move: a conflict
  between the chosen step and a step far downstream cannot be reached
  by any bounded sequence of adjacent flips, but one postponement
  realizes it.

Pruning (the DPOR part). Either move only *reorders* task chains, so
independence is judged on aggregated task footprints: the moved task's
Shared-container accesses from the choice point onward versus those of
every task it would cross (a handler's first slice is often a bare
``yield timeout(0)`` while its continuation pops 2PC state, so
per-step footprints alone under-approximate the dependence). If no
write/write or read/write overlap exists on any key
(:func:`~repro.analysis.mcheck.driver.footprints_conflict`), the
reordered run is Mazurkiewicz-equivalent to this one and is skipped
without running. A candidate that never executed in this run (e.g. a
timer the chosen branch canceled) is conservatively explored — its
effects are unknown, which is exactly why it is interesting. So is a
reordering across any step that ran before a footprint source was
attached: an unobserved step is not an independent one.

Two further bounds keep the tree finite and the budget honest:

- **preemption bound**: prefixes with more than ``max_flips`` non-FIFO
  choices are skipped (bugs overwhelmingly need few reorderings —
  the classic small-scope observation behind delay bounding);
- **schedule budget**: at most ``max_schedules`` scenario executions.

Runs are deduplicated by **canonical trace**: the sequence of
footprint-bearing steps, normalized by commuting adjacent independent
steps into a stable order (observed footprint-free steps commute
with everything and are dropped; unobserved steps stay, in place).
Two runs with equal canonical traces are the same Mazurkiewicz trace;
the second is counted, not re-expanded.

The second strategy, :func:`random_walk`, samples instead of
enumerating: each walk seed drives one run whose every armed choice is
a splitmix64 draw over the awake candidates. What a walk took is an
ordinary choice vector, so a violating walk is shrunk, saved and
replayed exactly like a DFS counterexample.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.mcheck.driver import (
    ScheduleController,
    StepRecord,
    footprints_conflict,
)
from repro.analysis.mcheck.sched import Schedule, violation_digest

__all__ = [
    "ExploreReport",
    "RunRecord",
    "explore",
    "random_walk",
    "run_schedule",
    "shrink",
]


@dataclass
class RunRecord:
    """One executed schedule plus everything recorded about it."""

    prefix: Tuple[int, ...]
    taken: Tuple[int, ...]
    controller: ScheduleController
    violations: Tuple[str, ...]
    digest: str  #: the run's schedule digest (sim.trace.digest())
    violation_digest: str
    diverged: bool
    payload: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_schedule(
    scenario: str,
    seed: int,
    prefix: Tuple[int, ...] = (),
    walk: Optional[int] = None,
) -> RunRecord:
    """Execute one scenario under one forced choice prefix (then FIFO,
    or the draws of walk seed ``walk``). A walk's record carries the
    commands it took as its prefix: the vector that replays it."""
    from repro.analysis.mcheck.scenarios import MCHECK_SCENARIOS

    try:
        fn = MCHECK_SCENARIOS[scenario]
    except KeyError:
        raise KeyError(
            f"unknown mcheck scenario {scenario!r}; "
            f"have {sorted(MCHECK_SCENARIOS)}"
        ) from None
    controller = ScheduleController(prefix, walk=walk)
    outcome = fn(seed, controller)
    taken = tuple(controller.taken)
    return RunRecord(
        prefix=tuple(prefix) if walk is None else taken,
        taken=taken,
        controller=controller,
        violations=tuple(outcome.violations),
        digest=outcome.digest,
        violation_digest=violation_digest(scenario, seed, outcome.violations),
        diverged=controller.diverged,
        payload=dict(outcome.payload),
    )


# ---------------------------------------------------------------------------
# canonical traces (Mazurkiewicz-equivalence dedup)
def _step_sig(step: StepRecord) -> Tuple[str, Tuple[str, ...], Tuple[str, ...]]:
    return (
        step.label,
        tuple(sorted(f"{label}\x00{key!r}" for label, key in step.reads)),
        tuple(sorted(f"{label}\x00{key!r}" for label, key in step.writes)),
    )


def canonical_trace(steps: List[StepRecord]) -> str:
    """Digest of the run's footprint-bearing steps in Foata-normalized
    order: each step bubbles left past adjacent independent steps until
    blocked by a conflict (or a smaller signature), so all linearizations
    of one Mazurkiewicz trace map to one digest. Observed footprint-free
    steps commute with everything and are elided entirely; unobserved
    steps conflict with everything and stay where they ran."""
    touching = [s for s in steps if s.touches]
    canon: List[StepRecord] = []
    sigs: List[Tuple] = []
    for step in touching:
        sig = _step_sig(step)
        i = len(canon)
        while i > 0 and not footprints_conflict(canon[i - 1], step) and sig < sigs[i - 1]:
            i -= 1
        canon.insert(i, step)
        sigs.insert(i, sig)
    blob = json.dumps(sigs, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# sibling pruning
def _candidate_slices(run: RunRecord, choice_index: int, alt: int) -> Optional[List[StepRecord]]:
    """The candidate's step plus every later slice of its task.

    Reordering candidate ``alt`` to the front of the flip window moves
    the *task*, not just one resume: a handler's first slice is often
    footprint-free (``yield timeout(0)``) while its continuation pops
    2PC state, so independence must be judged against the task's
    aggregate footprint from the candidate slice onward. Returns None
    when the candidate never executed in this run (e.g. a timer the
    chosen branch canceled) — its effects are unknown and the flip must
    be explored, not pruned.
    """
    ctl = run.controller
    choice = ctl.choices[choice_index]
    candidate = ctl.by_key.get(choice.live_keys[alt])
    if candidate is None:
        return None
    slices = [candidate]
    if candidate.task is not None:
        slices.extend(
            s
            for s in ctl.steps[candidate.order + 1 :]
            if s.task == candidate.task
        )
    return slices


def _chain_conflicts(
    ctl: ScheduleController,
    chain: List[StepRecord],
    window: List[StepRecord],
) -> Optional[Set[Tuple[str, str]]]:
    """Dependent (label, label) pairs between a moved task chain and the
    task chains it would cross; None when any of those steps went
    unobserved (its dependences are unknown).

    Each window task's footprint is aggregated from its first window
    slice to the end of the recording, symmetric with the candidate
    aggregation: the conflicting access usually lives in a continuation
    slice (the step physically inside the flip window is often a bare
    ``yield timeout(0)`` with an empty footprint)."""
    first = chain[0]
    opposing: List[StepRecord] = []
    seen_tasks: Set[str] = set()
    for step in window:
        if step.task is None:
            opposing.append(step)
            continue
        if step.task == first.task or step.task in seen_tasks:
            continue
        seen_tasks.add(step.task)
        opposing.append(step)
        opposing.extend(
            s for s in ctl.steps[step.order + 1 :] if s.task == step.task
        )
    if not all(s.observed for s in chain) or not all(s.observed for s in opposing):
        return None
    pairs: Set[Tuple[str, str]] = set()
    for step in opposing:
        for piece in chain:
            if footprints_conflict(step, piece):
                pairs.add(tuple(sorted((step.label, piece.label))))
    return pairs


def _flip_conflicts(
    run: RunRecord, choice_index: int, alt: int
) -> Optional[Set[Tuple[str, str]]]:
    """The dependent (label, label) pairs flipping to ``alt`` reorders.

    None means the candidate never ran or a step it would cross went
    unobserved (explore unconditionally); an empty set means the flip is provably Mazurkiewicz-equivalent to
    this run (safe to prune); a non-empty set justifies exploration and
    feeds the coverage report's "yield-point pairs exercised"."""
    slices = _candidate_slices(run, choice_index, alt)
    if slices is None:
        return None
    ctl = run.controller
    choice = ctl.choices[choice_index]
    window = ctl.steps[choice.at_step : slices[0].order]
    return _chain_conflicts(ctl, slices, window)


def _postpone_conflicts(
    run: RunRecord, choice_index: int
) -> Optional[Set[Tuple[str, str]]]:
    """The dependent pairs postponing this choice's head would reorder.

    Postponement pushes the chosen step's task chain past every later
    same-burst step, so the window is everything executed after it in
    this run. Empty set: the chain commutes with all of it — the
    postponed run is equivalent and is pruned; None: explore."""
    ctl = run.controller
    choice = ctl.choices[choice_index]
    if choice.at_step >= len(ctl.steps):
        return None
    chosen = ctl.steps[choice.at_step]
    chain = [chosen]
    if chosen.task is not None:
        chain.extend(
            s for s in ctl.steps[chosen.order + 1 :] if s.task == chosen.task
        )
    window = [
        s
        for s in ctl.steps[chosen.order + 1 :]
        if s.task is None or s.task != chosen.task
    ]
    return _chain_conflicts(ctl, chain, window)


# ---------------------------------------------------------------------------
@dataclass
class ExploreReport:
    """The outcome of one exploration: verdict plus coverage accounting."""

    scenario: str
    seed: int
    runs: int = 0
    distinct_traces: int = 0
    dedup_hits: int = 0
    pruned: int = 0  #: siblings skipped as provably equivalent
    bounded: int = 0  #: siblings skipped by the preemption bound
    frontier_truncated: int = 0  #: siblings dropped by the stack cap
    choice_points: int = 0  #: total armed choice points seen
    max_frontier: int = 1  #: widest choice point
    max_flips_used: int = 0
    armed_steps: int = 0
    budget_exhausted: bool = False
    dependent_pairs: Set[Tuple[str, str]] = field(default_factory=set)
    counterexample: Optional[RunRecord] = None
    shrunk_prefix: Optional[Tuple[int, ...]] = None
    shrink_runs: int = 0
    #: Walk seeds asked for (0 = a DFS report); a walk report counts
    #: distinct schedule digests as its distinct traces.
    walks: int = 0

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    @property
    def pruned_ratio(self) -> float:
        considered = self.runs + self.pruned + self.bounded + self.dedup_hits
        return self.pruned / considered if considered else 0.0

    def schedule(self) -> Optional[Schedule]:
        """The minimized counterexample as a saveable Schedule."""
        if self.counterexample is None:
            return None
        prefix = (
            self.shrunk_prefix
            if self.shrunk_prefix is not None
            else self.counterexample.prefix
        )
        return Schedule(
            scenario=self.scenario,
            seed=self.seed,
            choices=tuple(prefix),
            violation_digest=self.counterexample.violation_digest,
            violations=self.counterexample.violations,
            meta={
                "runs": self.runs,
                "original_choices": list(self.counterexample.prefix),
            },
        )

    def to_json(self) -> Dict[str, Any]:
        doc = {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "runs": self.runs,
            "distinct_traces": self.distinct_traces,
            "dedup_hits": self.dedup_hits,
            "pruned": self.pruned,
            "pruned_ratio": round(self.pruned_ratio, 4),
            "bounded": self.bounded,
            "frontier_truncated": self.frontier_truncated,
            "choice_points": self.choice_points,
            "max_frontier": self.max_frontier,
            "max_flips_used": self.max_flips_used,
            "armed_steps": self.armed_steps,
            "budget_exhausted": self.budget_exhausted,
            "dependent_pairs": sorted(list(p) for p in self.dependent_pairs),
            "shrink_runs": self.shrink_runs,
        }
        if self.walks:
            doc["walks"] = self.walks
        if self.counterexample is not None:
            doc["violations"] = list(self.counterexample.violations)
            doc["violation_digest"] = self.counterexample.violation_digest
            doc["choices"] = list(
                self.shrunk_prefix
                if self.shrunk_prefix is not None
                else self.counterexample.prefix
            )
        return doc

    def render(self) -> str:
        head = f"mcheck {self.scenario} seed={self.seed}: "
        if self.walks:
            head += (
                f"{self.runs} of {self.walks} random walk(s) run, "
                f"{self.distinct_traces} distinct schedule digest(s)"
            )
        else:
            head += (
                f"{self.runs} schedule(s) executed, "
                f"{self.distinct_traces} distinct trace(s), "
                f"{self.pruned} pruned ({self.pruned_ratio:.0%}), "
                f"{self.dedup_hits} deduped, {self.bounded} delay-bounded"
            )
        lines = [head]
        lines.append(
            f"  choice points: {self.choice_points} "
            f"(widest {self.max_frontier}-way), "
            f"armed steps: {self.armed_steps}, "
            + (
                f"most non-FIFO choices in one walk: {self.max_flips_used}"
                if self.walks
                else f"dependent pairs exercised: {len(self.dependent_pairs)}"
            )
        )
        if self.frontier_truncated:
            lines.append(
                f"  NOTE: {self.frontier_truncated} sibling schedule(s) "
                "dropped by the exploration stack cap (not covered)"
            )
        if self.budget_exhausted:
            lines.append("  NOTE: schedule budget exhausted before the frontier emptied")
        if self.counterexample is None:
            lines.append("  ok: every explored schedule satisfied the invariants")
        else:
            prefix = (
                self.shrunk_prefix
                if self.shrunk_prefix is not None
                else self.counterexample.prefix
            )
            lines.append(
                f"  VIOLATION after {self.runs} schedule(s); minimized "
                f"choices={list(prefix)} "
                f"(shrunk in {self.shrink_runs} replay(s))"
            )
            for violation in self.counterexample.violations:
                lines.append(f"    {violation}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
def shrink(
    scenario: str,
    seed: int,
    record: RunRecord,
    max_runs: int = 24,
) -> Tuple[Tuple[int, ...], int]:
    """Greedy counterexample minimization.

    Right-to-left, try reverting each non-FIFO choice to ``0``; keep
    the reversion when the re-run still produces the identical
    violation digest. Trailing zeros are dropped (they are the FIFO
    default). Returns ``(minimal prefix, replays spent)``.
    """
    target = record.violation_digest
    best = list(record.prefix)
    runs = 0
    for i in reversed(range(len(best))):
        # A kept reversion drops the zeros it leaves trailing.
        if i >= len(best) or best[i] == 0:
            continue
        if runs >= max_runs:
            break
        trial = list(best)
        trial[i] = 0
        while trial and trial[-1] == 0:
            trial.pop()
        attempt = run_schedule(scenario, seed, tuple(trial))
        runs += 1
        if attempt.violations and attempt.violation_digest == target:
            best = trial
    while best and best[-1] == 0:
        best.pop()
    return tuple(best), runs


# ---------------------------------------------------------------------------
def explore(
    scenario: str,
    seed: int = 0,
    max_schedules: int = 64,
    max_flips: int = 3,
    prune: bool = True,
    fail_fast: bool = True,
    do_shrink: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> ExploreReport:
    """Explore ``scenario``'s schedule space around the FIFO baseline.

    Returns an :class:`ExploreReport`; ``report.ok`` is False iff some
    explored schedule produced an invariant violation (the minimized
    counterexample is attached).
    """
    report = ExploreReport(scenario=scenario, seed=seed)
    seen_prefixes: Set[Tuple[int, ...]] = {()}
    seen_traces: Set[str] = set()
    stack: List[Tuple[int, ...]] = [()]
    # Honest-coverage cap: an adversarial frontier could enqueue
    # thousands of siblings the budget will never run; anything dropped
    # is counted, never silently forgotten.
    stack_cap = max(4 * max_schedules, 64)

    while stack and report.runs < max_schedules:
        prefix = stack.pop()
        record = run_schedule(scenario, seed, prefix)
        report.runs += 1
        ctl = record.controller
        report.armed_steps += len(ctl.steps)
        report.max_flips_used = max(
            report.max_flips_used, sum(1 for c in record.taken if c)
        )
        if log is not None:
            log(
                f"run {report.runs}: prefix={list(prefix)} "
                f"choices={len(ctl.choices)} steps={len(ctl.steps)} "
                f"violations={len(record.violations)}"
            )

        if record.violations:
            report.counterexample = record
            if do_shrink:
                report.shrunk_prefix, report.shrink_runs = shrink(
                    scenario, seed, record
                )
            if fail_fast:
                return report
            continue

        trace_id = canonical_trace(ctl.steps)
        if trace_id in seen_traces:
            report.dedup_hits += 1
            continue  # equivalent to an already-expanded run
        seen_traces.add(trace_id)
        report.distinct_traces += 1

        flips = sum(1 for c in record.taken if c)
        for i in range(len(prefix), len(ctl.choices)):
            choice = ctl.choices[i]
            report.choice_points += 1
            report.max_frontier = max(report.max_frontier, choice.n)
            if choice.n < 2:
                continue
            base = tuple(record.taken[:i])
            # -1 (postpone the head) rides along with the index flips:
            # it is the only move that can push the chosen step *after*
            # a conflicting step further down the burst.
            for alt in [*range(1, choice.n), -1]:
                sibling = base + (alt,)
                if sibling in seen_prefixes:
                    continue
                if flips + 1 > max_flips:
                    report.bounded += 1
                    continue
                if prune:
                    pairs = (
                        _postpone_conflicts(record, i)
                        if alt == -1
                        else _flip_conflicts(record, i, alt)
                    )
                    if pairs is not None and not pairs:
                        report.pruned += 1
                        continue
                    if pairs:
                        report.dependent_pairs.update(pairs)
                if len(stack) >= stack_cap:
                    report.frontier_truncated += 1
                    continue
                seen_prefixes.add(sibling)
                stack.append(sibling)

    if stack and report.runs >= max_schedules:
        report.budget_exhausted = True
    return report


# ---------------------------------------------------------------------------
def random_walk(
    scenario: str,
    seed: int = 0,
    walks: int = 5,
    do_shrink: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> ExploreReport:
    """Sample ``scenario``'s schedule space: one run per walk seed
    ``0 .. walks-1``, every armed choice a seeded draw.

    Stops at the first violating walk; its taken vector is the
    counterexample, shrunk like a DFS one. ``distinct_traces`` counts
    distinct schedule digests (``sim.trace.digest()``) — evidence the
    walks moved the schedule at all.
    """
    report = ExploreReport(scenario=scenario, seed=seed, walks=walks)
    digests: Set[str] = set()
    for walk in range(walks):
        record = run_schedule(scenario, seed, walk=walk)
        ctl = record.controller
        report.runs += 1
        report.armed_steps += len(ctl.steps)
        report.choice_points += len(ctl.choices)
        report.max_frontier = max([report.max_frontier, *(c.n for c in ctl.choices)])
        flips = sum(1 for c in record.taken if c)
        report.max_flips_used = max(report.max_flips_used, flips)
        if log is not None:
            log(
                f"walk {walk}: choices={len(ctl.choices)} non-FIFO={flips} "
                f"steps={len(ctl.steps)} violations={len(record.violations)}"
            )
        if record.violations:
            report.counterexample = record
            if do_shrink:
                report.shrunk_prefix, report.shrink_runs = shrink(scenario, seed, record)
            break
        digests.add(record.digest)
    report.distinct_traces = len(digests)
    return report
