"""Hierarchical span/counter tracing for experiments.

Spans form a *tree*: parentage is recorded at begin time —

- within a task, via a per-task span stack (``begin`` pushes, ``end``
  pops), so ``colza.execute`` contains the collective spans it drives;
- across tasks, via spawn inheritance: a task spawned while a span is
  open adopts that span as its ambient parent (a new ``Task`` reads it
  off the spawning context, as :meth:`Tracer.current_span` would), so
  concurrent ``stage`` tasks still hang off their iteration span;
- across processes, via the RPC trace context: Mercury forwards the
  caller's current span id on the wire and the handler's spans nest
  under it — distributed tracing, one simulated machine at a time.

The :class:`Tracer` keeps spans in a :class:`SpanStore`: typed columns,
one flat list of tag values and a child index. ``begin`` hands out a
:class:`Span` as the open span's handle (for the stack, ``end`` and the
RPC trace context); ``end`` writes it into the columns and forgets it,
so a finished span is its column cells and nothing else.
``tracer.spans`` reads ``Span`` rows back out, and ``span.children``
walks the index: asking about one iteration costs its own subtree, not
the whole history.

A message in flight is a *transit row*, not a handle: the fabric's
``na.send`` begins in the sender's context and ends at delivery, in
none. :meth:`Tracer.depart` writes the row's cells — start, parent
(resolved as ``begin`` resolves one), a kind looked up once per
(name, task) and the ``src`` / ``dest`` / ``nbytes`` tags, with the
``dropped`` cell reserved — and :meth:`Tracer.arrive` writes its end
and ``dropped``. A transit never becomes anyone's "current" span, and
reads back like any span: open (``end is None``, its three departure
tags) while in flight, a finished ``detached`` span after.

Disabled tracing (``tracer.enabled = False``) is a true no-op: spans
begun and transits departed while disabled are never recorded, and
ending them neither mutates them nor fires ``on_end`` callbacks.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

__all__ = ["Span", "SpanKind", "SpanStore", "Tracer", "canonical_tags"]


@dataclass(slots=True)
class Span:
    """A named interval of simulated time with free-form tags."""

    name: str
    start: float
    end: Optional[float] = None
    tags: Dict[str, Any] = field(default_factory=dict)
    #: Creation-ordered unique id (-1 for unrecorded spans).
    id: int = -1
    #: Parent span id (None for roots).
    parent: Optional[int] = None
    #: Name of the task that opened the span ("" outside task context).
    task: str = ""
    #: Transit rows (Tracer.depart) never sit on a span stack.
    detached: bool = False
    #: False when begun while tracing was disabled: the span was dropped
    #: at begin time and end() must treat it as a no-op.
    recorded: bool = True
    #: The store holding its row (None if unrecorded); never compared.
    store: Optional["SpanStore"] = field(default=None, repr=False, compare=False)

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} not finished")
        return self.end - self.start

    @property
    def children(self) -> List["Span"]:
        """Spans begun under this one, in id order, off the child index."""
        store = self.store
        return [] if store is None else list(map(store.row, store.child_rows(self.id - store.first_id)))

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this subtree (self included)."""
        yield self
        for child in self.children:
            yield from child.walk()


#: The shared no-op span handed out while tracing is disabled. ``end`` and
#: parent resolution both check ``recorded`` before touching anything,
#: so one frozen instance (id -1, empty tags, never mutated) serves
#: every disabled begin without a per-call Span/dict allocation — the
#: hot layers (mercury, margo) open spans on every RPC.
_DISABLED_SPAN = Span(name="<disabled>", start=0.0, recorded=False)

#: A transit row's tag keys: three written as it departs, ``dropped``
#: as it arrives.
TRANSIT_KEYS = ("src", "dest", "nbytes", "dropped")


class SpanKind(NamedTuple):
    """What a row's ``kind`` code stands for (~1k kinds per ~40k spans);
    ``keys`` in insertion order: begin's tags, then end's new ones."""

    name: str
    task: str
    detached: bool
    keys: Tuple[str, ...]


_CHUNK = 4096  # rows added at a time: a span's cells are stores, not appends


class SpanStore(SequenceABC):
    """Spans ``first_id`` to ``next_id - 1``, row ``i`` being span
    ``first_id + i``: as a sequence, :class:`Span` rows built on each
    read (compare them by ``id``, not identity). Columns: ``start``,
    ``end`` (NaN while open), ``parent`` (-1: a root), ``kind`` (into
    ``kind_list``), ``tag_at`` (into ``values``) and the child index
    ``last_child`` / ``prev_sibling`` (rows; -1: none) — 40 bytes a row,
    8 a tag value, under 2**31 of each. An open span's handle, which
    holds its tags, is in ``open`` until it ends; a transit row has no
    handle, its kind and tag cells being written as it departs
    (``transits``: its kind code by (name, task)).
    """

    __slots__ = (
        "first_id", "next_id", "start", "end", "parent", "kind", "tag_at", "last_child",
        "prev_sibling", "values", "nvalues", "kinds", "kind_list", "open", "transits",
    )

    def __init__(self, first_id: int = 0):
        self.first_id = self.next_id = first_id
        self.start, self.end, self.parent = array("d"), array("d"), array("q")
        self.kind, self.tag_at = array("i"), array("i")
        self.last_child, self.prev_sibling = array("i"), array("i")
        self.values: List[Any] = []
        self.nvalues = 0
        self.kinds: Dict[tuple, Tuple[int, int]] = {}
        self.kind_list: List[SpanKind] = []
        self.open: Dict[int, Span] = {}
        self.transits: Dict[Tuple[str, str], int] = {}

    def __len__(self) -> int:
        return self.next_id - self.first_id

    def __getitem__(self, index):
        rows = range(len(self))[index]
        return [self.row(i) for i in rows] if isinstance(rows, range) else self.row(rows)

    def grow(self) -> None:
        """Add a chunk of rows, pre-filled as "open, a root, childless"."""
        nan = float("nan")
        for column, fill in (
            (self.start, nan), (self.end, nan), (self.parent, -1), (self.kind, 0),
            (self.tag_at, 0), (self.last_child, -1), (self.prev_sibling, -1),
        ):
            column.extend(array(column.typecode, [fill]) * _CHUNK)

    def child_rows(self, i: int) -> List[int]:
        """Rows of row ``i``'s children, in id order: O(children), and no
        call per child (``+=``, not ``append``: cProfile counts those)."""
        rows: List[int] = []
        child = self.last_child[i]
        while child >= 0:
            rows += (child,)
            child = self.prev_sibling[child]
        rows.reverse()
        return rows

    def intern(self, key: tuple) -> Tuple[int, int]:
        """The code and tag count of kind ``key`` — ``(name, task,
        detached, keys)`` — added to ``kind_list`` if new."""
        try:
            return self.kinds[key]
        except KeyError:
            code = self.kinds[key] = (len(self.kind_list), len(key[3]))
            self.kind_list.append(SpanKind(*key))
            return code

    def tag_items(self, kind: SpanKind, at: int) -> Iterable[Tuple[str, Any]]:
        """A finished row's tags as ``(key, value)`` pairs."""
        return zip(kind.keys, self.values[at:at + len(kind.keys)])

    def row(self, i: int) -> Span:
        """Row ``i``: the handle while a begun span is open, else a new Span."""
        span_id = self.first_id + i
        live = self.open.get(span_id)
        if live is not None:
            return live
        kind, parent, end = self.kind_list[self.kind[i]], self.parent[i], self.end[i]
        tags = dict(self.tag_items(kind, self.tag_at[i]))
        if end != end:  # NaN: a transit in flight, whose last tag is its arrival's
            end = None
            tags.popitem()
        return Span(kind.name, self.start[i], end, tags, span_id,
                    None if parent < 0 else parent, kind.task, kind.detached, True, self)


class _SpanContext:
    """``with tracer.span("name"):`` — begin/end with exception tagging."""

    __slots__ = ("_tracer", "_name", "_tags", "_parent", "span")

    def __init__(self, tracer: "Tracer", name: str, parent, tags: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._tags = tags
        self._parent = parent
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer.begin(self._name, parent=self._parent, **self._tags)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._tracer.end(self.span)
        else:
            self._tracer.end(self.span, error=exc_type.__name__)
        return None


def canonical_tags(tags: Union[Dict[str, Any], Iterable[Tuple[str, Any]]]) -> Dict[str, Any]:
    """Deterministically JSON-serializable copy of ``tags`` — a dict or
    ``(key, value)`` pairs — (or raise).

    Accepted: JSON primitives, lists/tuples/dicts thereof, numpy
    scalars (converted), and objects with a ``uri`` attribute
    (addresses — rendered via ``str``). Anything else raises
    ``TypeError``: default ``repr`` carries memory addresses, which
    would silently break digest stability.
    """
    pairs = tags.items() if isinstance(tags, dict) else tags
    return {str(k): v if type(v) in _PLAIN else _canonical(v) for k, v in pairs}


#: Tag value types that :func:`_canonical` returns as they are.
_PLAIN = frozenset((str, int, float, bool, type(None)))


def _canonical(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if hasattr(value, "uri"):  # Address-like: stable string form
        return str(value)
    # Numpy scalars (duck-typed to avoid a hard numpy dependency here).
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return _canonical(value.item())
    raise TypeError(
        f"span tag value {value!r} ({type(value).__name__}) is not "
        "deterministically serializable; pass a JSON primitive or str() it"
    )


class Tracer:
    """Collects a span tree and counters against the simulated clock."""

    def __init__(self, sim: "Any"):
        self._sim = sim
        #: The spans since the last clear(), which starts a new store.
        self.spans = SpanStore()
        self.counters: Dict[str, float] = {}
        self.enabled = True
        #: Callbacks invoked with each span as it finishes (invariant
        #: monitors, live dashboards). Exceptions propagate — a checker
        #: failing is a test failure, not something to swallow.
        self.on_end: List[Any] = []
        #: Span stack for code running outside any task.
        self._root_stack: List[Span] = []

    # ------------------------------------------------------------------
    # context plumbing
    def current_span(self) -> Optional[Span]:
        """The innermost open span of the current execution context."""
        task = self._sim._current_task
        if task is None:
            return self._root_stack[-1] if self._root_stack else None
        if task.trace_stack:
            return task.trace_stack[-1]
        return task.trace_parent

    def begin(self, name: str, parent: Union[Span, int, None] = None, **tags: Any) -> Span:
        """Open a span at the current simulated time and push its handle
        on the context's span stack.

        Parentage defaults to the current context (span stack, then the
        task's spawn-inherited parent); pass ``parent`` (a span or span
        id, e.g. an RPC trace context) to override. ``tags`` is the
        caller's fresh ``**tags`` dict and holds the span's tags until
        it ends.
        """
        if not self.enabled:
            return _DISABLED_SPAN
        sim = self._sim
        task = sim._current_task
        if task is None:
            stack, ambient, task_name = self._root_stack, None, ""
        else:
            stack, ambient, task_name = task.trace_stack, task.trace_parent, task.name
        parent_id: Optional[int]
        if parent is None:
            if stack:
                parent_id = stack[-1].id
            elif ambient is not None:
                parent_id = ambient.id
            else:
                parent_id = None
        elif isinstance(parent, Span):
            parent_id = parent.id if parent.recorded else None
        else:
            parent_id = int(parent)
        store = self.spans
        span_id = store.next_id
        store.next_id = span_id + 1
        i = span_id - store.first_id
        now = sim._now
        span = Span(name, now, None, tags, span_id, parent_id, task_name, False, True, store)
        store.open[span_id] = span
        try:
            store.start[i] = now
        except IndexError:  # the first row of a chunk
            store.grow()
            store.start[i] = now
        if parent_id is not None:
            store.parent[i] = parent_id
            # A parent dropped by clear() keeps its id on the child but
            # is not in this store: recorded, not linked.
            above = parent_id - store.first_id
            if 0 <= above < i:
                store.prev_sibling[i] = store.last_child[above]
                store.last_child[above] = i
        if stack is None:
            task.trace_stack = [span]
        else:
            stack.append(span)
        return span

    def depart(self, name: str, src: Any, dest: Any, nbytes: int) -> int:
        """Open a transit row — ``nbytes`` on their way from ``src`` to
        ``dest`` — at the current simulated time, and return the row in
        :attr:`spans` that :meth:`arrive` closes (-1 while tracing is
        disabled: nothing is written).

        Its parent is the current context's, as for :meth:`begin`, but
        it never becomes the current span: later ``begin`` calls do not
        nest under it. Its kind (``name``, the task, detached,
        :data:`TRANSIT_KEYS`) is interned once per (name, task), and the
        ``dropped`` cell is reserved: no handle, tag dict, ``open`` entry
        or ``tuple(keys)`` is made per message.
        """
        if not self.enabled:
            return -1
        sim = self._sim
        task = sim._current_task
        if task is None:
            stack, ambient, task_name = self._root_stack, None, ""
        else:
            stack, ambient, task_name = task.trace_stack, task.trace_parent, task.name
        store = self.spans
        span_id = store.next_id
        store.next_id = span_id + 1
        i = span_id - store.first_id
        try:
            store.start[i] = sim._now
        except IndexError:  # the first row of a chunk
            store.grow()
            store.start[i] = sim._now
        try:
            store.kind[i] = store.transits[name, task_name]
        except KeyError:  # this task's first transit of this name
            code, _ = store.intern((name, task_name, True, TRANSIT_KEYS))
            store.kind[i] = store.transits[name, task_name] = code
        store.tag_at[i] = at = store.nvalues
        values = store.values
        values += (src, dest, nbytes, None)
        store.nvalues = at + 4
        if stack:
            parent_id = stack[-1].id
        elif ambient is not None:
            parent_id = ambient.id
        else:
            return i
        store.parent[i] = parent_id
        above = parent_id - store.first_id
        if 0 <= above < i:  # see begin
            store.prev_sibling[i] = store.last_child[above]
            store.last_child[above] = i
        return i

    def arrive(self, store: SpanStore, row: int, dropped: bool) -> None:
        """Close the transit :meth:`depart` opened at ``row`` of ``store``
        (the store it went into, whatever :meth:`clear` did since): its
        end and ``dropped`` cells, then each ``on_end`` callback, if any,
        with a :class:`Span` of the row. No-op for ``row`` -1."""
        if row < 0:
            return
        store.end[row] = self._sim._now
        store.values[store.tag_at[row] + 3] = dropped
        if self.on_end:
            span = store.row(row)
            for cb in self.on_end:
                cb(span)

    def end(self, span: Span, **tags: Any) -> Span:
        """Close a span at the current simulated time: its end and tags
        go to the store's columns, which keep no reference to ``span``.

        No-op for unrecorded spans (begun while disabled) and for spans
        already ended — disabled tracing and double-ends must not
        mutate state or fire callbacks.
        """
        if not span.recorded or span.end is not None:
            return span
        sim = self._sim
        now = span.end = sim._now
        own = span.tags
        if tags:
            own |= tags
        store = span.store
        i = span.id - store.first_id
        store.end[i] = now
        key = span.name, span.task, False, tuple(own)
        try:
            store.kind[i], width = store.kinds[key]
        except KeyError:  # a new kind
            store.kind[i], width = store.intern(key)
        # Values in the dict's order (begin's keys, then end's new ones):
        # the order the exports write.
        if width:
            store.tag_at[i] = at = store.nvalues
            values = store.values
            values += own.values()
            store.nvalues = at + width
        del store.open[span.id]
        # Nearly always the span closes where it opened and is the top
        # of that context's stack; anything else unwinds.
        task = sim._current_task
        stack = self._root_stack if task is None else task.trace_stack
        if stack and stack[-1] is span:
            del stack[-1]
        else:
            self._unwind(span)
        for cb in self.on_end:
            cb(span)
        return span

    def _unwind(self, span: Span) -> None:
        """Pop ``span`` (and any unfinished children above it) from the
        stack it lives on. Ending out of task context (e.g. from an
        event callback) may miss the stack; search both."""
        task = self._sim._current_task
        stacks = []
        if task is not None and task.trace_stack:
            stacks.append(task.trace_stack)
        stacks.append(self._root_stack)
        for stack in stacks:
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is span:
                    del stack[i:]
                    return

    def span(self, name: str, parent: Union[Span, int, None] = None, **tags: Any) -> _SpanContext:
        """Context manager: ``with trace.span("phase") as s: ...``."""
        return _SpanContext(self, name, parent, tags)

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Increment a named counter."""
        if self.enabled:
            self.counters[counter] = self.counters.get(counter, 0.0) + amount

    # ------------------------------------------------------------------
    def find(self, name: str, first: int = 0, /, **tags: Any) -> Iterator[Span]:
        """Finished spans named ``name`` with all the given tag values, in
        id order, from row ``first`` on (a reader's cursor)."""
        store = self.spans
        codes = {code for code, kind in enumerate(store.kind_list) if kind.name == name}
        cells = zip(store.kind[first:], store.end[first:])
        for i, (code, end) in enumerate(cells, first):
            if code in codes and end == end:  # named ``name``, and ended
                span = store.row(i)
                if all(span.tags.get(k) == v for k, v in tags.items()):
                    yield span

    def durations(self, name: str, **tags: Any) -> List[float]:
        """Durations of all matching finished spans."""
        return [s.duration for s in self.find(name, **tags)]

    def clear(self) -> None:
        """Drop every recorded span and counter: a new store, ids keep
        counting. Rows and handles read before keep the old store (their
        ``children`` stay as they were); a span still open on a task's
        stack ends into it and stays a valid parent *by id* only: what
        begins under it afterwards is a root of the new forest."""
        self.spans = SpanStore(self.spans.next_id)
        self.counters.clear()
        self._root_stack.clear()

    # ------------------------------------------------------------------
    # export / summaries
    def to_records(self) -> List[Dict[str, Any]]:
        """Finished spans as deterministic plain dicts (see
        :func:`canonical_tags` for the tag contract)."""
        store = self.spans
        kinds = store.kind_list
        cells = zip(store.kind, store.start, store.end, store.parent, store.tag_at)
        return [
            {
                "id": store.first_id + i,
                "parent": None if parent < 0 else parent,
                "name": kinds[code].name,
                "task": kinds[code].task,
                "start": start,
                "end": end,
                "tags": canonical_tags(store.tag_items(kinds[code], at)),
            }
            for i, (code, start, end, parent, at) in enumerate(cells)
            if end == end  # not NaN: finished (rows not begun read as open)
        ]

    def to_json(self, path: str) -> str:
        """Write finished spans + counters to a JSON file.

        Serialization is strict: a non-canonical tag raises instead of
        degrading to ``repr`` (which would embed memory addresses and
        break replay diffing).
        """
        import json

        payload = {"spans": self.to_records(), "counters": dict(self.counters)}
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, indent=2))
        return path

    def digest(self) -> str:
        """Stable SHA-256 over all finished spans and counters.

        Canonicalization: spans in creation order with ids/parentage,
        tags via :func:`canonical_tags`, keys sorted, floats via their
        shortest round-trip repr. Two runs of the same seeded program
        produce byte-identical digests — the determinism oracle of the
        chaos suite (same seed ⇒ same digest).
        """
        import hashlib
        import json

        payload = json.dumps(
            {"spans": self.to_records(), "counters": self.counters},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name aggregates: count, total, mean, min, max,
        p50 and p99 (quantiles via the deterministic sketch)."""
        from repro.telemetry.sketch import QuantileSketch

        store = self.spans
        sketches: Dict[str, QuantileSketch] = {}  # by name, in order of first finish
        of_kind: List[Optional[QuantileSketch]] = [None] * len(store.kind_list)
        for code, start, end in zip(store.kind, store.start, store.end):
            if end == end:  # not NaN: finished
                sketch = of_kind[code]
                if sketch is None:
                    name = store.kind_list[code].name
                    sketch = of_kind[code] = sketches.setdefault(name, QuantileSketch())
                sketch.add(end - start)
        agg: Dict[str, Dict[str, float]] = {}
        for name, sketch in sketches.items():
            agg[name] = {
                "count": sketch.count,
                "total": sketch.total,
                "mean": sketch.total / sketch.count,
                "min": sketch.min,
                "max": sketch.max,
                "p50": sketch.quantile(0.50),
                "p99": sketch.quantile(0.99),
            }
        return agg
