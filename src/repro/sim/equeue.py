"""The kernel's indexed, cancelable priority queue of event firings.

The previous kernel kept a flat ``heapq`` of ``(when, key, thunk)``
tuples. That forces two costs on hot paths:

- a closure allocation per scheduled call (the thunk), even for the
  overwhelmingly common "fire this callback with this argument" case;
- no cancellation: a timer that lost its race (an RPC reply beat the
  timeout) still sits in the heap, still pops, and still schedules a
  dead callback — at scale, RPC-heavy layers (SWIM gossip is one
  timeout per ping) pay double their event budget for nothing.

:class:`EventQueue` keeps the same total order — ``(when, key)``
lexicographic, keys unique so comparison never reaches the payload —
but stores mutable entries ``[when, key, call, arg]`` so a scheduled
call can be *canceled in place* (lazy deletion). Canceled entries
become tombstones: they stay in the heap, lose their payload, and are
skipped on pop. When tombstones outnumber live entries (and exceed a
floor), the heap is compacted: dead entries filtered out, the survivors
re-heapified in O(n).

Determinism: cancellation never reorders anything — live entries keep
their original keys, and a tombstone's pop is invisible (no callback,
no clock movement, no RNG). Two runs of the same seeded program pop
the identical sequence of live entries whether or not compaction
happened to trigger in between.

One queue call per event: the event loop drains through
:meth:`EventQueue.pop_until` alone — "discard surfacing tombstones, stop
at the horizon, else consume the head" is one method, and ``pop()`` is
``pop_until(inf)``, so there is one implementation of popping.
``peek_when`` / ``frontier`` / ``take`` remain for ``Simulation.step``,
``peek`` and the model checker's Controlled tie-breaker, which must
look before they choose.

Not everything the kernel dispatches passes through here: under FIFO
tie-breaking a call due *now* that would pop ahead of the whole heap
waits on the kernel's run lane instead (``repro.sim.kernel``), and
``Simulation.queue_stats`` adds those to the counts below.

The queue also keeps the op counters the perf-trajectory harness and
the perf-budget smoke tests assert on: pushes, pops, cancels,
compactions, and the peak number of simultaneously live entries.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional, Tuple

__all__ = ["EventQueue", "FOREVER", "NO_ARG"]

#: Sentinel argument: ``call()`` instead of ``call(arg)``.
NO_ARG = object()

# Entry layout (a list, so cancel() can mutate it in place).
_WHEN, _KEY, _CALL, _ARG = 0, 1, 2, 3

#: ``pop_until`` limit that every entry is due before.
FOREVER = float("inf")


class EventQueue:
    """Min-heap of ``[when, key, call, arg]`` entries with lazy deletion.

    ``push`` returns the entry itself — that list is the cancellation
    handle. Keys must be unique and monotone in schedule order (the
    kernel's sequence counter, possibly permuted by perturbation mode);
    the queue never compares ``call``/``arg``.
    """

    __slots__ = (
        "_heap", "_live", "_tombstones", "min_compact",
        "pushes", "pops", "cancels", "compactions", "peak_depth",
    )

    def __init__(self, min_compact: int = 64):
        self._heap: List[list] = []
        self._live = 0
        self._tombstones = 0
        #: Compaction floor: never compact below this many tombstones
        #: (rebuilding a tiny heap is all overhead, no win).
        self.min_compact = min_compact
        self.pushes = 0
        self.pops = 0
        self.cancels = 0
        self.compactions = 0
        self.peak_depth = 0

    # ------------------------------------------------------------------
    # introspection
    def __len__(self) -> int:
        """Number of *live* (non-canceled) entries."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def tombstones(self) -> int:
        """Canceled entries still physically present in the heap."""
        return self._tombstones

    @property
    def physical_depth(self) -> int:
        """Heap length including tombstones (the memory footprint)."""
        return len(self._heap)

    def stats(self) -> dict:
        """Op counters + current shape, for gauges and bench reports."""
        return {
            "depth": self._live,
            "tombstones": self._tombstones,
            "peak_depth": self.peak_depth,
            "pushes": self.pushes,
            "pops": self.pops,
            "cancels": self.cancels,
            "compactions": self.compactions,
        }

    # ------------------------------------------------------------------
    # scheduling
    def push(self, when: float, key: int, call: Callable, arg: Any = NO_ARG) -> list:
        """Schedule ``call`` (with ``arg``) at ``when``; returns the handle."""
        entry = [when, key, call, arg]
        heapq.heappush(self._heap, entry)
        self._live += 1
        self.pushes += 1
        if self._live > self.peak_depth:
            self.peak_depth = self._live
        return entry

    def push_many(
        self, items: Iterable[Tuple[float, int, Callable, Any]]
    ) -> List[list]:
        """Batch-schedule; returns one handle per item.

        For batches comparable to the heap size this extends + re-heapifies
        in O(n + m) instead of m × O(log n) sift-ups; small batches fall
        back to repeated pushes. Either way the resulting order is the
        heap order — identical to pushing one by one.
        """
        entries = [[when, key, call, arg] for (when, key, call, arg) in items]
        m = len(entries)
        if not m:
            return entries
        heap = self._heap
        # Heapify wins once the batch is within ~log(n) of the heap size.
        if m * 8 >= len(heap):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            for entry in entries:
                heapq.heappush(heap, entry)
        self._live += m
        self.pushes += m
        if self._live > self.peak_depth:
            self.peak_depth = self._live
        return entries

    # ------------------------------------------------------------------
    # cancellation
    def cancel(self, entry: list) -> bool:
        """Tombstone a pending entry; False if already popped/canceled.

        O(1) (plus an amortized O(n) compaction once tombstones dominate).
        """
        if entry[_CALL] is None:
            return False
        entry[_CALL] = None
        entry[_ARG] = None
        self._live -= 1
        self._tombstones += 1
        self.cancels += 1
        if self._tombstones > self.min_compact and self._tombstones > self._live:
            self.compact()
        return True

    def compact(self) -> None:
        """Drop every tombstone and re-heapify the survivors, O(n). In
        place: the kernel holds ``_heap`` itself (to see, without a
        call, whether anything is due now), so it is never rebound."""
        self._heap[:] = [e for e in self._heap if e[_CALL] is not None]
        heapq.heapify(self._heap)
        self._tombstones = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # draining
    def peek_when(self) -> Optional[float]:
        """Timestamp of the next live entry (tombstones are discarded)."""
        heap = self._heap
        while heap and heap[0][_CALL] is None:
            heapq.heappop(heap)
            self._tombstones -= 1
        return heap[0][_WHEN] if heap else None

    def pop_until(self, limit: float) -> Optional[tuple]:
        """Remove and return the next live ``(when, key, call, arg)`` if
        it is due at or before ``limit``; None when the queue is empty or
        the next live entry lies beyond ``limit`` (it stays queued).

        This is the event loop's *one queue call per event*: surfacing
        tombstones are discarded, the horizon is checked and the entry
        consumed in the same call. The popped entry's payload is
        consumed in place, so a handle that is canceled *after* its pop
        (an event that fired while a racer held its timer handle) is a
        clean no-op, not a corrupted live count.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            call = entry[_CALL]
            if call is None:
                heapq.heappop(heap)
                self._tombstones -= 1
                continue
            when = entry[_WHEN]
            if when > limit:
                return None
            heapq.heappop(heap)
            arg = entry[_ARG]
            entry[_CALL] = None
            entry[_ARG] = None
            self._live -= 1
            self.pops += 1
            return (when, entry[_KEY], call, arg)
        return None

    def pop(self) -> Optional[tuple]:
        """Remove and return ``(when, key, call, arg)``, or None when empty."""
        return self.pop_until(FOREVER)

    # ------------------------------------------------------------------
    # controlled selection (the model checker's hooks; never on hot paths)
    def frontier(self, when: float) -> List[list]:
        """All live entries scheduled exactly at ``when``, in key order.

        O(n) over the physical heap — acceptable because only the
        exploration driver (repro.analysis.mcheck) calls it, and only
        at timestamps it is armed for. The returned entries are the
        real handles: pass one to :meth:`take` to consume it.
        """
        return sorted(
            (e for e in self._heap if e[_CALL] is not None and e[_WHEN] == when),
            key=lambda e: e[_KEY],
        )

    def take(self, entry: list) -> Optional[tuple]:
        """Consume a specific live entry out of heap order.

        The payload is consumed in place and the husk stays in the heap
        as a tombstone (counted, so the pop/peek accounting that
        decrements ``_tombstones`` when dead entries surface stays
        balanced). Returns ``(when, key, call, arg)``, or None if the
        entry was already popped/canceled.
        """
        call = entry[_CALL]
        if call is None:
            return None
        arg = entry[_ARG]
        entry[_CALL] = None
        entry[_ARG] = None
        self._live -= 1
        self._tombstones += 1
        self.pops += 1
        return (entry[_WHEN], entry[_KEY], call, arg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EventQueue live={self._live} tombstones={self._tombstones} "
            f"peak={self.peak_depth}>"
        )
