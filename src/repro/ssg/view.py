"""SWIM membership state: per-member records and update precedence.

This module is pure logic (no simulation dependencies) so the SWIM
precedence rules can be property-tested in isolation. The rules follow
the SWIM paper's order of overriding:

- ``ALIVE(inc=i)``   overrides ``ALIVE(j)`` and ``SUSPECT(j)`` iff ``i > j``
  (a member refutes suspicion by incrementing its incarnation);
- ``SUSPECT(inc=i)`` overrides ``ALIVE(j)`` iff ``i >= j`` and
  ``SUSPECT(j)`` iff ``i > j``;
- ``DEAD``/``LEFT``  override everything and are terminal.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.na.address import Address

__all__ = ["MemberState", "MembershipView", "Status", "UPDATE_FRAMING_BYTES", "Update"]

#: Bytes an :class:`Update` occupies on the wire beyond its member
#: address and its status name (record header, three field names, a
#: one-byte incarnation).
UPDATE_FRAMING_BYTES = 90


class Status(enum.Enum):
    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"
    LEFT = "left"

    @property
    def terminal(self) -> bool:
        return self in (Status.DEAD, Status.LEFT)


@dataclass(frozen=True)
class Update:
    """A disseminated membership assertion.

    Declares its wire size (the ``nbytes`` protocol of
    :mod:`repro.na.payload`): member address + status name +
    :data:`UPDATE_FRAMING_BYTES`. The incarnation counts as one byte
    whatever its value — exact for 0-255, where a serialised record's
    varint would still be one byte, and the contract beyond.
    """

    status: Status
    member: Address
    incarnation: int

    @property
    def nbytes(self) -> int:
        return self.member.nbytes + len(self.status.value) + UPDATE_FRAMING_BYTES

    def overrides(self, state: Optional["MemberState"]) -> bool:
        """Whether this update supersedes the current local record."""
        if state is None:
            # Unknown member: any assertion is news. A terminal update
            # about an unknown member is still recorded (tombstone) so
            # that stale ALIVE gossip cannot resurrect it.
            return True
        if state.status.terminal:
            return False
        if self.status in (Status.DEAD, Status.LEFT):
            return True
        if self.status is Status.ALIVE:
            return self.incarnation > state.incarnation
        if self.status is Status.SUSPECT:
            if state.status is Status.ALIVE:
                return self.incarnation >= state.incarnation
            return self.incarnation > state.incarnation
        raise AssertionError(self.status)  # pragma: no cover


@dataclass
class MemberState:
    """Local record about one member."""

    status: Status
    incarnation: int


class MembershipView:
    """One agent's (eventually consistent) picture of the group.

    Passing ``sim`` keeps the module's pure-logic default intact but
    stores the member table in a SimTSan-observable
    :class:`~repro.analysis.simtsan.Shared` container, so reads of the
    view that span a yield point while another task applies an update
    are flagged as races when a detector is installed.
    """

    def __init__(self, self_address: Address, sim=None):
        self.self_address = self_address
        initial = {self_address: MemberState(Status.ALIVE, 0)}
        if sim is None:
            self._members: Dict[Address, MemberState] = initial
        else:
            from repro.analysis.simtsan import Shared

            self._members = Shared(
                initial, sim=sim, label=f"ssg.view@{self_address}"
            )
        # Incrementally maintained sorted list of non-terminal members —
        # the membership *delta* structure. Every churn event adjusts it
        # in O(log n) compares + one memmove instead of the old full
        # sort-per-read; alive()/size() become copy/O(1). Perf-budget
        # tests assert rebuilds stays at 0 outside construction.
        self._alive_sorted: List[Address] = [self_address]
        #: Full re-sorts of the cache (diagnostics; should stay 0).
        self.rebuilds = 0

    # ------------------------------------------------------------------
    def _rebuild_alive(self) -> None:
        """Recompute the sorted-alive cache from scratch (cold path)."""
        self._alive_sorted = sorted(
            addr
            for addr, st in self._members.items()
            if not st.status.terminal
        )
        self.rebuilds += 1

    def alive(self) -> List[Address]:
        """Sorted addresses currently believed alive (incl. suspects,
        which SWIM still treats as members until declared dead)."""
        # Touch the member table so an installed SimTSan detector still
        # observes this as a whole-view read (the cache itself is only
        # ever mutated by apply/forget_terminal, under the same tasks).
        len(self._members)
        return list(self._alive_sorted)

    def status_of(self, member: Address) -> Optional[Status]:
        state = self._members.get(member)
        return state.status if state else None

    def incarnation_of(self, member: Address) -> int:
        state = self._members.get(member)
        return state.incarnation if state else -1

    def contains(self, member: Address) -> bool:
        state = self._members.get(member)
        return state is not None and not state.status.terminal

    def size(self) -> int:
        return len(self._alive_sorted)

    # ------------------------------------------------------------------
    def apply(self, update: Update) -> bool:
        """Apply an update; returns True if it changed the view."""
        state = self._members.get(update.member)
        if not update.overrides(state):
            return False
        # Terminal updates win regardless of incarnation; keep the
        # highest incarnation seen so the record stays monotone.
        incarnation = update.incarnation
        if state is not None:
            incarnation = max(incarnation, state.incarnation)
        self._members[update.member] = MemberState(update.status, incarnation)
        # Delta-maintain the sorted-alive cache. ALIVE<->SUSPECT flips
        # keep membership; only join (unknown/terminal -> non-terminal)
        # and departure (non-terminal -> terminal) move the list.
        was_alive = state is not None and not state.status.terminal
        is_alive = not update.status.terminal
        if is_alive and not was_alive:
            insort(self._alive_sorted, update.member)
        elif was_alive and not is_alive:
            cache = self._alive_sorted
            idx = bisect_left(cache, update.member)
            del cache[idx]
        return True

    def snapshot_updates(self) -> List[Update]:
        """The full view as a list of updates (sent to joiners)."""
        return [
            Update(state.status, addr, state.incarnation)
            for addr, state in sorted(self._members.items())
        ]

    def forget_terminal(self, member: Address) -> None:
        """Drop a tombstone (used by tests / long-running groups)."""
        state = self._members.get(member)
        if state is not None and state.status.terminal:
            del self._members[member]
