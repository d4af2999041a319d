"""Replayable counterexample files (``.sched``).

A schedule file pins everything needed to re-execute one exact run of
one scenario: the scenario seed plus the **choice vector** — the
command the exploration driver took at every same-timestamp choice
point (``0`` = FIFO head, so the all-zero vector *is* the FIFO schedule
and trailing zeros can be dropped). DFS and random walks both end in
one, so both write the same file.

It also records a **violation digest** — the strict canonical hash
(:func:`invariant_digest`) of the scenario name, seed, and sorted
violation list — so a replay can assert it reproduced *the same*
failure, not merely *a* failure. A file with no violation digest pins
a clean run: its replay must stay clean.

Format (JSON, one object)::

    {"format": "repro-sched-v1", "tool": "mcheck",
     "scenario": ..., "seed": ..., "choices": [...],
     "violation_digest": ..., "violations": [...], "meta": {...}}

``python -m repro.analysis replay <file>`` re-executes it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.sim.trace import canonical_tags

__all__ = [
    "SCHED_FORMAT",
    "ReplayResult",
    "Schedule",
    "invariant_digest",
    "replay",
    "violation_digest",
]

SCHED_FORMAT = "repro-sched-v1"


def invariant_digest(payload: Dict[str, Any]) -> str:
    """Canonical hash of a JSON-like payload.

    Canonicalization is *strict* — the same policy as the tracer's
    schedule digest (:func:`repro.sim.trace.canonical_tags`): JSON
    primitives, lists/tuples/dicts thereof, numpy scalars, and
    Address-like objects (rendered via ``str``). Anything else raises
    ``TypeError`` instead of silently degrading to ``str(value)`` —
    default reprs carry memory addresses, which would make the digest
    differ between two identical runs (or, worse, collide two genuinely
    different outcomes that happen to repr alike).
    """
    blob = json.dumps(
        canonical_tags(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def violation_digest(scenario: str, seed: int, violations: Iterable[str]) -> str:
    """Canonical hash identifying *which* failure a run produced."""
    return invariant_digest(
        {
            "scenario": scenario,
            "seed": seed,
            "violations": sorted(violations),
        }
    )


@dataclass
class Schedule:
    """One pinned run of one scenario — the counterexample artifact."""

    scenario: str
    seed: int
    #: Command per choice point (0 = FIFO head, k = k-th awake
    #: candidate, -1 = postpone the head; trailing zeros dropped).
    choices: Tuple[int, ...] = ()
    #: Expected failure identity; None for a clean pinned schedule.
    violation_digest: Optional[str] = None
    violations: Tuple[str, ...] = ()
    meta: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "format": SCHED_FORMAT,
            "tool": "mcheck",
            "scenario": self.scenario,
            "seed": self.seed,
            "choices": list(self.choices),
        }
        if self.violation_digest is not None:
            doc["violation_digest"] = self.violation_digest
        if self.violations:
            doc["violations"] = list(self.violations)
        if self.meta:
            doc["meta"] = self.meta
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "Schedule":
        fmt = doc.get("format")
        if fmt != SCHED_FORMAT:
            raise ValueError(
                f"not a schedule file: format={fmt!r} (expected {SCHED_FORMAT!r})"
            )
        tool = doc.get("tool")
        if tool == "fuzz":
            raise ValueError(
                "'fuzz' schedules pin a tie-break permutation the kernel no "
                "longer has (the fuzzer was removed); re-find the failure "
                "with `mcheck --walk`, whose schedules replay as choices"
            )
        if tool != "mcheck":
            raise ValueError(f"unknown schedule tool {tool!r}")
        return cls(
            scenario=doc["scenario"],
            seed=int(doc["seed"]),
            choices=tuple(int(c) for c in doc.get("choices", ())),
            violation_digest=doc.get("violation_digest"),
            violations=tuple(doc.get("violations", ())),
            meta=dict(doc.get("meta", {})),
        )

    def save(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "Schedule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@dataclass
class ReplayResult:
    """Outcome of re-executing a pinned schedule."""

    schedule: Schedule
    violations: Tuple[str, ...]
    violation_digest: str
    #: The forced choice vector no longer matched the live candidates
    #: (code drifted since the file was written).
    diverged: bool = False
    payload: Dict[str, Any] = field(default_factory=dict)

    @property
    def matches(self) -> bool:
        """Did the replay reproduce the recorded failure identity (or,
        for a clean pin, stay clean)?"""
        if self.diverged:
            return False
        if self.schedule.violation_digest is None:
            return not self.violations
        return self.violation_digest == self.schedule.violation_digest

    def render(self) -> str:
        sched = self.schedule
        lines = [
            f"replay {sched.scenario} seed={sched.seed} choices={list(sched.choices)}"
        ]
        if self.diverged:
            lines.append(
                "  DIVERGED: recorded choices no longer match the live "
                "schedule (code changed since the file was written)"
            )
        for violation in self.violations:
            lines.append(f"  violation: {violation}")
        if sched.violation_digest is not None:
            verdict = "reproduced" if self.matches else "DID NOT reproduce"
            lines.append(
                f"  {verdict} recorded failure "
                f"{sched.violation_digest[:12]} "
                f"(replay: {self.violation_digest[:12]})"
            )
        elif self.violations:
            lines.append("  REGRESSED: pinned clean, but the replay violates")
        else:
            lines.append("  clean (no violations, none expected)")
        return "\n".join(lines)


def replay(schedule: Schedule) -> ReplayResult:
    """Re-execute a pinned schedule and compare failure identities."""
    from repro.analysis.mcheck.explore import run_schedule

    record = run_schedule(schedule.scenario, schedule.seed, schedule.choices)
    return ReplayResult(
        schedule=schedule,
        violations=tuple(record.violations),
        violation_digest=record.violation_digest,
        diverged=record.diverged,
        payload=dict(record.payload),
    )
