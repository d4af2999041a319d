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

Async operations whose begin and end live in different execution
contexts (message transits, RDMA) use :meth:`Tracer.begin_async`: the
span records its parent but never becomes anyone's "current" span.

:class:`Span` *is* the tree node and the :class:`Tracer` is the tree's
only owner: a span is appended to its parent's ``children`` when it
begins, and nothing else ever builds or mutates that list. Readers —
:class:`repro.bench.harness.IterationTiming`, the critical-path
analyzer, ``tree_shape`` — take a ``Span`` and walk ``span.children``;
asking about one iteration costs its own subtree, not the whole
history.

Disabled tracing (``tracer.enabled = False``) is a true no-op: spans
begun while disabled are never recorded, and ending them neither
mutates them nor fires ``on_end`` callbacks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

__all__ = ["Span", "Tracer", "canonical_tags"]


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
    #: Async spans never sit on a span stack (see Tracer.begin_async).
    detached: bool = False
    #: False when begun while tracing was disabled: the span was dropped
    #: at begin time and end() must treat it as a no-op.
    recorded: bool = True
    #: Spans begun under this one, in id order. Linked by the Tracer at
    #: begin time and derived from ``parent``, so never serialized or
    #: compared — ``to_records()``/``digest()`` carry ``parent`` only.
    #: The shared ``()`` until the first child: most spans are leaves,
    #: and a list each is one more GC-tracked container per message.
    children: Sequence["Span"] = field(default=(), repr=False, compare=False)

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} not finished")
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this subtree (self included)."""
        yield self
        for child in self.children:
            yield from child.walk()


#: Shared no-op spans handed out while tracing is disabled. ``end`` and
#: parent resolution both check ``recorded`` before touching anything,
#: so one frozen instance (id -1, empty tags, never mutated) serves
#: every disabled begin without a per-call Span/dict allocation — the
#: hot layers (fabric, mercury, margo) open spans on every message.
_DISABLED_SPAN = Span(name="<disabled>", start=0.0, recorded=False)
_DISABLED_ASYNC_SPAN = Span(name="<disabled>", start=0.0, detached=True, recorded=False)


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


def canonical_tags(tags: Dict[str, Any]) -> Dict[str, Any]:
    """Deterministically JSON-serializable copy of ``tags`` (or raise).

    Accepted: JSON primitives, lists/tuples/dicts thereof, numpy
    scalars (converted), and objects with a ``uri`` attribute
    (addresses — rendered via ``str``). Anything else raises
    ``TypeError``: default ``repr`` carries memory addresses, which
    would silently break digest stability.
    """
    return {str(k): _canonical(v) for k, v in tags.items()}


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


def _span_opener(method: str, detached: bool, doc: str):
    """The body of :meth:`Tracer.begin` and :meth:`Tracer.begin_async`,
    bound to ``detached``: resolve the span's context (task, parent,
    stack), link it under its parent and — unless ``detached`` — push
    it on the context's stack, in the one call the layers make per
    message. ``tags`` is the caller's fresh ``**tags`` dict and becomes
    the span's own."""
    unrecorded = _DISABLED_ASYNC_SPAN if detached else _DISABLED_SPAN

    def open_span(
        self: "Tracer", name: str, parent: Union[Span, int, None] = None, **tags: Any
    ) -> Span:
        if not self.enabled:
            return unrecorded
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
        span_id = self._ids
        self._ids = span_id + 1
        span = Span(name, sim._now, None, tags, span_id, parent_id, task_name, detached)
        # A parent dropped by clear() keeps its id on the child but no
        # longer indexes ``spans``: recorded, not linked.
        if parent_id is not None and self._first_id <= parent_id < span_id:
            above = self.spans[parent_id - self._first_id]
            if above.children:
                above.children.append(span)
            else:
                above.children = [span]
        self.spans.append(span)
        if not detached:
            if stack is None:
                task.trace_stack = [span]
            else:
                stack.append(span)
        return span

    open_span.__name__, open_span.__qualname__, open_span.__doc__ = method, f"Tracer.{method}", doc
    # Its own code object, named for the method, keeps the two apart in
    # a profile (one code object would merge them under one entry).
    names = {"co_name": method}
    if sys.version_info >= (3, 11):
        names["co_qualname"] = open_span.__qualname__
    open_span.__code__ = open_span.__code__.replace(**names)
    return open_span


class Tracer:
    """Collects a span tree and counters against the simulated clock."""

    def __init__(self, sim: "Any"):
        self._sim = sim
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.enabled = True
        #: Callbacks invoked with each span as it finishes (invariant
        #: monitors, live dashboards). Exceptions propagate — a checker
        #: failing is a test failure, not something to swallow.
        self.on_end: List[Any] = []
        self._ids = 0
        #: Id of ``spans[0]``: ids are dense, so span ``i`` sits at
        #: ``spans[i - _first_id]`` (clear() drops spans, never ids).
        self._first_id = 0
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

    begin = _span_opener(
        "begin",
        detached=False,
        doc="""Open a span at the current simulated time.

        Parentage defaults to the current context (span stack, then the
        task's spawn-inherited parent); pass ``parent`` (a span or span
        id, e.g. an RPC trace context) to override.
        """,
    )

    begin_async = _span_opener(
        "begin_async",
        detached=True,
        doc="""Open a span that never becomes the current span.

        For operations whose end lives in another execution context
        (message transit, RDMA completion): the span records its parent
        for the tree but later ``begin`` calls will not nest under it.
        """,
    )

    def end(self, span: Span, **tags: Any) -> Span:
        """Close a span at the current simulated time.

        No-op for unrecorded spans (begun while disabled) and for spans
        already ended — disabled tracing and double-ends must not
        mutate state or fire callbacks.
        """
        if not span.recorded or span.end is not None:
            return span
        sim = self._sim
        span.end = sim._now
        if tags:
            span.tags.update(tags)
        if not span.detached:
            # Nearly always the span closes where it opened and is the
            # top of that context's stack; anything else unwinds.
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
    def find(self, name: str, **tags: Any) -> Iterator[Span]:
        """Finished spans matching name and all given tag values."""
        for span in self.spans:
            if span.name != name or span.end is None:
                continue
            if all(span.tags.get(k) == v for k, v in tags.items()):
                yield span

    def durations(self, name: str, **tags: Any) -> List[float]:
        """Durations of all matching finished spans."""
        return [s.duration for s in self.find(name, **tags)]

    def clear(self) -> None:
        """Drop every recorded span and counter. Ids keep counting, and
        spans still open on a task's stack stay valid parents *by id*
        only: what begins under them afterwards is a root of the new
        forest."""
        self.spans.clear()
        self.counters.clear()
        self._root_stack.clear()
        self._first_id = self._ids

    # ------------------------------------------------------------------
    # export / summaries
    def to_records(self) -> List[Dict[str, Any]]:
        """Finished spans as deterministic plain dicts (see
        :func:`canonical_tags` for the tag contract)."""
        return [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "task": s.task,
                "start": s.start,
                "end": s.end,
                "tags": canonical_tags(s.tags),
            }
            for s in self.spans
            if s.end is not None
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

        sketches: Dict[str, QuantileSketch] = {}
        for span in self.spans:
            if span.end is None:
                continue
            sketch = sketches.get(span.name)
            if sketch is None:
                sketch = sketches[span.name] = QuantileSketch()
            sketch.add(span.duration)
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
