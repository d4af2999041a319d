"""The exploration driver the ``Controlled`` tie-breaker defers to.

A :class:`ScheduleController` is the concrete implementation of the
driver protocol documented in :mod:`repro.sim.tiebreak`. One controller
drives one scenario run: whenever the kernel finds two or more live
events sharing the earliest timestamp (a *choice point*), the
controller answers with the index to fire next — replaying a recorded
``prefix`` of choices and defaulting to ``0`` (FIFO) beyond it — and
records everything the explorer needs to enumerate the neighbouring
schedules:

- the choice points themselves (candidate keys and fingerprints, the
  index taken), which become the branching structure of the DFS;
- per-step *access footprints*: the set of SimTSan ``Shared``-container
  reads and writes each executed event performed, collected through
  :attr:`repro.analysis.simtsan.SimTSan.on_access`. Footprints are the
  independence relation — two steps commute unless one writes a key
  the other touches — that the explorer's sleep-set pruning and
  trace canonicalization are keyed on.

The controller starts *disarmed*: the kernel pops FIFO and records
nothing, so stack bring-up (SWIM convergence alone is thousands of
events) costs no choice points. Scenarios arm it only around the racy
window under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.simtsan import _WHOLE

__all__ = [
    "ChoiceRecord",
    "ScheduleController",
    "StepRecord",
    "fingerprint",
    "footprints_conflict",
]


def fingerprint(call: Any) -> str:
    """A stable, address-free label for a scheduled callable.

    Bound methods are labelled ``Qualname(owner.name)`` (tasks and
    events carry deterministic names); bare functions fall back to
    their qualname. Never uses ``repr`` — that embeds memory addresses
    and would make schedule files differ between identical runs.
    """
    qual = (
        getattr(call, "__qualname__", None)
        or getattr(call, "__name__", None)
        or type(call).__name__
    )
    owner = getattr(call, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", "")
        if name:
            return f"{qual}({name})"
    return qual


@dataclass
class StepRecord:
    """One event executed while the controller was armed."""

    order: int  #: position in the armed execution order
    key: int  #: the queue entry's tie-break key (FIFO sequence number)
    label: str  #: :func:`fingerprint` of the callable
    #: Name of the task this slice ran on behalf of. Attributed from
    #: the scheduled callable's owner (the bound ``Task._start`` /
    #: ``Task._resume``) and corrected to ``sim.current_task`` at the
    #: slice's first Shared access: a plain-function entry (a fabric
    #: arrival, an MPI completion) has no owner, and a timer's
    #: ``Event.succeed`` is owned by the event, whose name is not a
    #: task's. Lets the explorer aggregate a task's footprint across its
    #: run slices — a handler's first slice often touches nothing shared
    #: (``yield timeout(0)``) while its continuation pops 2PC state.
    task: Optional[str] = None
    #: True once ``task`` came from an actual access (authoritative).
    task_pinned: bool = False
    #: Shared-container accesses: sets of ``(shared label, key)``.
    reads: Set[Tuple[str, Any]] = field(default_factory=set)
    writes: Set[Tuple[str, Any]] = field(default_factory=set)

    @property
    def touches(self) -> bool:
        return bool(self.reads or self.writes)

    def footprint_json(self) -> Dict[str, List[str]]:
        return {
            "reads": sorted(f"{label}[{key!r}]" for label, key in self.reads),
            "writes": sorted(f"{label}[{key!r}]" for label, key in self.writes),
        }


@dataclass
class ChoiceRecord:
    """One same-timestamp decision the controller answered.

    The command alphabet: ``k >= 0`` fires the ``k``-th *awake*
    candidate (0 = FIFO head); ``-1`` postpones the FIFO head — its key
    goes into the sleep set and is skipped at subsequent choice points
    until it is the only candidate left at its timestamp — and fires
    the next awake candidate. Postponement is how the explorer moves a
    chosen event *after* a later conflicting one without spelling out
    every intermediate swap.
    """

    at_step: int  #: armed-step position at which the chosen entry ran
    when: float  #: the shared timestamp
    n: int  #: number of awake candidates (the command space)
    taken: int  #: command applied (-1 = postponed the head)
    keys: Tuple[int, ...]  #: all candidate queue keys, in FIFO order
    labels: Tuple[str, ...]  #: all candidate fingerprints, in FIFO order
    live_keys: Tuple[int, ...] = ()  #: awake candidate keys, FIFO order


def _overlaps(xs: Set[Tuple[str, Any]], ys: Set[Tuple[str, Any]]) -> bool:
    if not xs or not ys:
        return False
    for label_a, key_a in xs:
        for label_b, key_b in ys:
            if label_a != label_b:
                continue
            # Container-level accesses (iteration/len/update) observe
            # every key at once and conflict with any access.
            if key_a == key_b or key_a == _WHOLE or key_b == _WHOLE:
                return True
    return False


def footprints_conflict(a: StepRecord, b: StepRecord) -> bool:
    """The dependence relation: two steps conflict iff one wrote a
    Shared key the other read or wrote. Steps with disjoint (or empty)
    footprints commute — executing them in either order yields the
    same protocol state, the Mazurkiewicz-equivalence fact the
    explorer's pruning and trace dedup both rest on."""
    return (
        _overlaps(a.writes, b.writes)
        or _overlaps(a.writes, b.reads)
        or _overlaps(a.reads, b.writes)
    )


class ScheduleController:
    """Replays a choice prefix and records the run's schedule structure.

    Parameters
    ----------
    prefix:
        Choice indices to force, in choice-point order. Beyond the
        prefix every choice defaults to ``0`` — the FIFO head — so the
        empty prefix reproduces the FIFO schedule bit-identically.
    """

    def __init__(self, prefix: Tuple[int, ...] = ()):
        self.prefix: Tuple[int, ...] = tuple(prefix)
        self.armed = False
        #: Decisions answered so far (armed choice points only).
        self.choices: List[ChoiceRecord] = []
        #: The index actually taken at each choice point.
        self.taken: List[int] = []
        #: Steps executed while armed, in execution order.
        self.steps: List[StepRecord] = []
        #: Step lookup by queue key (for locating a choice point's
        #: unchosen candidates later in the same run).
        self.by_key: Dict[int, StepRecord] = {}
        #: True if a forced choice index was out of range for the
        #: candidates actually live — the schedule file is stale
        #: relative to the code (replay clamps to FIFO and flags).
        self.diverged = False
        #: Keys postponed by ``-1`` commands; skipped at choice points
        #: until they are the last candidate standing at their
        #: timestamp (the kernel never reorders across timestamps).
        self.sleeping: set = set()
        self._current: Optional[StepRecord] = None
        self._tsan: Optional[Any] = None

    # ------------------------------------------------------------------
    def attach(self, tsan: Any) -> "ScheduleController":
        """Collect footprints through ``tsan`` (a SimTSan detector)."""
        self._tsan = tsan
        tsan.on_access = self._on_access
        return self

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False
        self.sleeping.clear()
        self._current = None

    # ------------------------------------------------------------------
    # the driver protocol (called by the kernel)
    def choose(self, sim: Any, when: float, candidates: List[list]) -> int:
        if not self.armed:
            # Outside the armed window ties resolve FIFO and are not
            # recorded: stack bring-up and cooldown are identical across
            # runs, so choice indices stay aligned to the racy window.
            return 0
        live = [e for e in candidates if e[1] not in self.sleeping]
        if not live:
            live = list(candidates)
        i = len(self.choices)
        cmd = self.prefix[i] if i < len(self.prefix) else 0
        if cmd == -1 and len(live) > 1:
            self.sleeping.add(live[0][1])
            pick = live[1]
        else:
            if not 0 <= cmd < len(live):
                self.diverged = True
                cmd = 0
            pick = live[cmd]
        self.choices.append(
            ChoiceRecord(
                at_step=len(self.steps),
                when=when,
                n=len(live),
                taken=cmd,
                keys=tuple(entry[1] for entry in candidates),
                labels=tuple(fingerprint(entry[2]) for entry in candidates),
                live_keys=tuple(entry[1] for entry in live),
            )
        )
        self.taken.append(cmd)
        return candidates.index(pick)

    def begin_step(self, sim: Any, popped: tuple) -> None:
        if self.sleeping:
            self.sleeping.discard(popped[1])
        if not self.armed:
            self._current = None
            return
        call = popped[2]
        # Task._start / Task._resume are bound to their task; a timer's
        # Event.succeed is bound to the event (corrected on first access).
        owner = getattr(call, "__self__", None)
        record = StepRecord(
            order=len(self.steps),
            key=popped[1],
            label=fingerprint(call),
            task=getattr(owner, "name", None) if owner is not None else None,
        )
        self.steps.append(record)
        self.by_key[record.key] = record
        self._current = record

    # ------------------------------------------------------------------
    def _on_access(self, label: str, key: Any, is_write: bool) -> None:
        current = self._current
        if current is None:
            return
        if not current.task_pinned:
            tsan = self._tsan
            task = tsan.sim.current_task if tsan is not None else None
            if task is not None:
                current.task = task.name
                current.task_pinned = True
        (current.writes if is_write else current.reads).add((label, key))
