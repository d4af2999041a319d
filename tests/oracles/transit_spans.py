"""The ``na.send`` span as it was while every message opened one through
``Tracer.begin_async`` and closed it with ``Tracer.end``: the reference
the transit rows (``Tracer.depart`` / ``Tracer.arrive``) are held to
(``tests/test_transit_rows.py``). ``install(monkeypatch)`` routes every
``Endpoint.send`` through :func:`send` below.

The three bodies are the removed code, unchanged but for being
functions rather than methods: ``_span_opener`` (whose ``detached=True``
instance was ``begin_async``), ``Tracer.end`` and ``Fabric.send``, which
calls the other two as ``begin_async(sim.trace, ...)`` and
``end(sim.trace, ...)``.
"""

from __future__ import annotations

import sys
from typing import Any, Hashable, Optional, Union

from repro.na.fabric import Endpoint, LinkAction, Message, NAError
from repro.na.payload import payload_nbytes
from repro.sim.kernel import Event
from repro.sim.trace import _DISABLED_SPAN, Span, SpanKind

_DISABLED_ASYNC_SPAN = Span(name="<disabled>", start=0.0, detached=True, recorded=False)


def _span_opener(method: str, detached: bool, doc: str):
    """The body of :meth:`Tracer.begin` and :meth:`Tracer.begin_async`,
    bound to ``detached``: resolve the span's context (task, parent,
    stack), write its row, link it under its parent and — unless
    ``detached`` — push its handle on the context's stack, in the one
    call the layers make per message. ``tags`` is the caller's fresh
    ``**tags`` dict and holds the span's tags until it ends."""
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
        store = self.spans
        span_id = store.next_id
        store.next_id = span_id + 1
        i = span_id - store.first_id
        now = sim._now
        span = Span(name, now, None, tags, span_id, parent_id, task_name, detached, True, store)
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
    key = span.name, span.task, span.detached, tuple(own)
    try:
        store.kind[i], width = store.kinds[key]
    except KeyError:  # a new kind
        store.kind[i], width = store.kinds[key] = (len(store.kind_list), len(own))
        store.kind_list.append(SpanKind(*key))
    # Values in the dict's order (begin's keys, then end's new ones):
    # the order the exports write.
    if width:
        store.tag_at[i] = at = store.nvalues
        values = store.values
        values += own.values()
        store.nvalues = at + width
    del store.open[span.id]
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


def send(
    self,
    src: Endpoint,
    dest: Address,
    payload: Any,
    tag: Hashable = 0,
    nbytes: Optional[int] = None,
) -> Event:
    """Send; the returned event fires at delivery time.

    ``nbytes`` overrides the computed payload size (used when a
    small Python object stands in for a larger wire format).
    """
    sim = self.sim
    if not src.alive:
        if src.quiesced:
            return Event(sim, "na.send-from-dead")  # never fires
        raise NAError(f"send from deregistered endpoint {src.address}")
    size = payload_nbytes(payload) if nbytes is None else int(nbytes)
    source = src.address
    # Fault injection point: consulted before transit-cost charging
    # so injected delays shift the arrival (and the FIFO horizon)
    # exactly as slow links would. Un-instrumented runs pay the one
    # dict probe and no call.
    action: Optional[LinkAction] = None
    if "na.send" in sim._interceptors:
        action = sim.intercept("na.send", source, dest, size, tag)
    dest_uri = dest.uri
    dest_ep = self._endpoints.get(dest_uri)
    same_node = dest_ep is not None and dest_ep.node_index == src.node_index
    transit = src.model.p2p_time(size, same_node=same_node)
    if action is not None and action.delay > 0:
        transit += action.delay

    now = sim._now
    arrive = now + transit
    horizon = src._horizon
    earliest = horizon.get(dest_uri)
    if earliest is not None and earliest > arrive:
        arrive = earliest
    horizon[dest_uri] = arrive

    self.messages_sent += 1
    self.bytes_sent += size
    self._m_transit.observe(arrive - now)

    # Event names are constants: formatting an address into a
    # per-message name would cost more than the event it labels,
    # and the span below already records source and destination.
    done = Event(sim, "na.send")
    msg = Message(source, dest, tag, payload, size, now, arrive)

    dropped = action is not None and action.drop
    # Async span: begin here in the sender's context (so it nests
    # under the collective/RPC driving it), end at delivery time.
    span = begin_async(sim.trace, "na.send", src=source, dest=dest, nbytes=size)

    def arrive_cb() -> None:
        target = self._endpoints.get(dest_uri)
        delivered = not dropped and target is not None and target.alive
        if delivered:
            target._mailbox.deliver(msg)
        else:
            self._m_dropped.inc()
        # Dropped silently if the endpoint died in flight.
        end(sim.trace, span, dropped=not delivered)
        done.succeed(msg)

    sim._schedule_at(arrive, arrive_cb)
    if action is not None and action.duplicate and not dropped:

        def duplicate_cb() -> None:
            target = self._endpoints.get(dest_uri)
            if target is not None and target.alive:
                target._mailbox.deliver(msg)

        sim._schedule_at(arrive, duplicate_cb)
    return done


begin_async = _span_opener(
    "begin_async",
    detached=True,
    doc="""Open a span that never becomes the current span.""",
)


def install(monkeypatch) -> None:
    """Send every message through the removed path."""

    def endpoint_send(self, dest, payload, tag=0, nbytes=None):
        return send(self.fabric, self, dest, payload, tag=tag, nbytes=nbytes)

    monkeypatch.setattr(Endpoint, "send", endpoint_send)
