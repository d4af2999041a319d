"""The discrete-event simulation kernel.

A :class:`Simulation` owns a simulated clock and a priority queue of
pending event firings. Concurrency is expressed with plain Python
generators: a *task* is a generator that ``yield``\\ s :class:`Event`
objects to block and is resumed with the event's value once it fires.
Sub-routines compose with ``yield from`` and may ``return`` values.

Determinism: events scheduled for the same simulated time fire in
schedule order (a monotonically increasing sequence number breaks
ties), so a given program produces an identical trace on every run.
Whether program *correctness* accidentally depends on that FIFO
tie-break order is testable: a simulation built with a ``controller``
(or inside :func:`controlled_ties`, which is how the model checker
takes over scenario code that builds its own simulation) hands every
choice between same-time events to that driver. Keys stay FIFO, so a
driver that always answers ``0`` reproduces the FIFO schedule exactly.
The driver protocol (duck-typed; the implementation is
``repro.analysis.mcheck.ScheduleController``):

- ``armed`` — while false, the loop pops FIFO and asks nothing;
- ``choose(sim, when, candidates) -> int`` — called when two or more
  live entries share the earliest time; ``candidates`` are queue
  entries in key (FIFO) order; returns the index to fire next;
- ``begin_step(sim, popped)`` — called before every popped call runs.

Hot-path contracts (``tests/test_perf_budgets.py`` pins them as counts):

- **One queue call per event.** :meth:`Simulation.run` asks the queue
  once per event (:meth:`EventQueue.pop_until`: skip tombstones, check
  the horizon, consume) — never a peek followed by a pop.
- **Firing is one call.** :meth:`Event.succeed` / :meth:`Event.fail`
  hand each waiter straight to ``_schedule_call``; an event nobody
  waits on schedules nothing.
- **A same-instant wake-up skips the heap.** Under FIFO tie-breaking
  ``_schedule_call`` appends to the *run lane* — a deque drained before
  the next heap pop — whenever the heap holds nothing due at ``now``:
  the call would have drawn a key above every key queued, so that is
  where the heap would have put it (DESIGN §12 has the argument,
  ``tests/test_kernel_run_lane.py`` the heap-only kernel to compare
  with). A timer with one waiter that pops under the same condition
  resumes the waiter from the pop, the call the lane would have
  dispatched next. Once the heap holds a tie at ``now``, and for the
  whole of a controlled run, every call takes the heap.
- **A waiting task costs no allocation.** A task leaves its one bound
  ``Task._resume`` on the event it yields, and a race (:class:`AnyOf`)
  its one bound ``_child_fired`` on every child: no closure per yield or
  child. A deadline is the queue handle of one expiry, not a timer
  event raced against: firing first cancels it.
- **Event names are labels, not data.** A name is read only by error
  messages, ``repr`` and the model checker's fingerprints; layers that
  create an event per message pass a constant (``"na.send"``), never
  an f-string that formats an address — who sent what to whom is on
  the span, which is what gets digested.

None of this is observable in simulated terms: same events in the same
order at the same times.

Example
-------
>>> sim = Simulation()
>>> def worker(sim, out):
...     yield sim.timeout(2.5)
...     out.append(sim.now)
>>> out = []
>>> _ = sim.spawn(worker(sim, out))
>>> sim.run()
>>> out
[2.5]
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.equeue import FOREVER, NO_ARG, EventQueue

__all__ = [
    "AllOf",
    "AnyOf",
    "Deadline",
    "Event",
    "Interrupt",
    "Killed",
    "Simulation",
    "SimulationError",
    "Task",
    "controlled_ties",
]

# A task body: a generator yielding Events and returning an arbitrary value.
Coroutine = Generator["Event", Any, Any]

#: What ``run`` drains when a simulation has no run lane: always empty.
_NO_LANE: deque = deque()

#: Process-wide default exploration driver, consulted by Simulation()
#: when no explicit ``controller`` is given. Set via controlled_ties().
_default_controller: Optional[Any] = None


@contextmanager
def controlled_ties(controller: Any):
    """Context manager: simulations built inside the block hand their
    same-timestamp choices to ``controller`` (unless given one
    explicitly), so the model checker can drive *unmodified* scenario
    code that constructs its own :class:`Simulation`::

        with controlled_ties(driver):
            ctx = build_stack(seed=0)
    """
    global _default_controller
    outer = _default_controller
    _default_controller = controller
    try:
        yield controller
    finally:
        _default_controller = outer


class SimulationError(RuntimeError):
    """Raised for kernel-level protocol violations (e.g. double-firing
    an event, yielding a non-event, running a finished simulation)."""


class Interrupt(Exception):
    """Thrown *into* a task by :meth:`Task.interrupt`.

    The interrupted task may catch it to clean up; ``cause`` carries
    the interrupter's reason object.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Killed(Exception):
    """Recorded as the outcome of a task removed with :meth:`Task.kill`."""


class Deadline(Exception):
    """The outcome of a race (:class:`AnyOf`) whose deadline passed first."""


class Event:
    """A one-shot occurrence tasks can wait on.

    An event starts *pending*; it is fired exactly once, either with a
    value (:meth:`succeed`) or with an exception (:meth:`fail`). Tasks
    blocked on it are resumed with the value, or have the exception
    thrown into them. Waiting on an already-fired event resumes the
    waiter immediately (at the current simulated time, after currently
    scheduled events) — there is no "missed wakeup".
    """

    __slots__ = ("sim", "name", "_value", "_exc", "_fired", "_callbacks", "_shandle")

    def __init__(self, sim: "Simulation", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._fired = False
        self._callbacks: list[Callable[["Event"], None]] = []
        #: Queue handle of the call that settles the event unless it
        #: fires first (a timer's firing, a deadline's expiry).
        self._shandle: Optional[list] = None

    # ------------------------------------------------------------------
    # introspection
    @property
    def fired(self) -> bool:
        """Whether the event has already been triggered."""
        return self._fired

    @property
    def ok(self) -> bool:
        """True once the event fired successfully."""
        return self._fired and self._exc is None

    @property
    def value(self) -> Any:
        """The success value (raises if pending or failed)."""
        if not self._fired:
            raise SimulationError(f"event {self.name!r} has not fired")
        if self._exc is not None:
            raise self._exc
        return self._value

    # ------------------------------------------------------------------
    # firing
    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, resuming all waiters.

        Callbacks run through the scheduler (same timestamp), never
        synchronously: the firing task runs to its next yield before
        any waiter resumes, and long wake-up chains stay iterative (no
        Python recursion, however deep the dependency graph). With no
        waiter registered nothing is scheduled at all.
        """
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        if self._shandle is not None:
            self._withdraw_settle()
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            schedule = self.sim._schedule_call
            for cb in callbacks:
                schedule(cb, self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event with an exception, thrown into all waiters.

        Failing an event that already fired raises
        :class:`SimulationError`: the original outcome may already have
        resumed waiters, so silently swallowing (or overwriting) the
        second verdict would hide a protocol bug.
        """
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._fired:
            raise SimulationError(
                f"fail() on already-fired event {self.name!r} "
                f"(new failure: {exc!r})"
            )
        self._fired = True
        self._exc = exc
        if self._shandle is not None:
            self._withdraw_settle()
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            schedule = self.sim._schedule_call
            for cb in callbacks:
                schedule(cb, self)
        return self

    def _expire(self, value: Any) -> None:
        """The scheduled firing of a timer under FIFO tie-breaking (what
        :meth:`Simulation.timeout` queues instead of :meth:`succeed`).

        Only the event loop calls this, with the run lane drained. A
        single waiter would go to the lane and be dispatched next when
        the heap holds nothing due now (see the module docstring), so it
        is resumed from here instead; any other case is ``succeed``.
        """
        self._shandle = None  # popping now
        callbacks = self._callbacks
        if len(callbacks) == 1 and not self._fired:
            sim = self.sim
            heap = sim._heap
            if not heap or heap[0][0] > sim._now:
                self._fired = True
                self._value = value
                self._callbacks = []
                callbacks[0](self)
                return
        self.succeed(value)

    def cancel(self) -> bool:
        """Withdraw a pending event's scheduled settle: a timer never
        fires, a deadline never expires. Only safe once no waiter depends
        on it; the kernel calls it when the last waiter leaves. Returns
        False when nothing was scheduled, fired or cancelled before.

        It also drops the callbacks: nothing will call them, and keeping
        them could close a reference cycle through a race that holds the
        winning event and its payload until the cyclic collector runs.
        """
        if self._fired:
            return False
        handle = self._shandle
        if handle is None:
            return False
        self._shandle = None
        if not self.sim._queue.cancel(handle):
            return False
        self._callbacks = []
        return True

    def _withdraw_settle(self) -> None:
        handle, self._shandle = self._shandle, None
        self.sim._queue.cancel(handle)

    # ------------------------------------------------------------------
    # waiting
    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Invoke ``cb(event)`` when the event fires (immediately via the
        scheduler if it already fired)."""
        if self._fired:
            # Preserve run-to-completion semantics: defer to the loop.
            self.sim._schedule_call(cb, self)
        else:
            self._callbacks.append(cb)

    def discard_callback(self, cb: Callable[["Event"], None]) -> None:
        """Remove a previously registered callback if still pending. A
        pending event left with no waiter is abandoned: its timer or
        deadline is cancelled, a race withdraws its children."""
        callbacks = self._callbacks
        try:
            callbacks.remove(cb)
        except ValueError:
            return
        if not callbacks and not self._fired:
            self._abandon()

    def _abandon(self) -> None:
        self.cancel()


class AllOf(Event):
    """Fires once every child event has fired successfully.

    Value is the list of child values in the order given. If any child
    fails, this event fails with that child's exception (first failure
    wins).
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulation", events: Iterable[Event], name: str = "all_of"):
        super().__init__(sim, name)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            sim._schedule_call(self.succeed, [])
            return
        for ev in self._children:
            ev.add_callback(self._child_fired)

    def _child_fired(self, ev: Event) -> None:
        if self._fired:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """A race: the first outcome among ``children`` (events, or tasks'
    ``done``) wins with ``(index, value)`` or its exception (a child
    task's too, never a strict-mode abort); ``deadline`` seconds with
    none fail it with :class:`Deadline`. ``cancel`` tasks are owned, not
    raced.

    A lost race leaves nothing behind. As the waiter resumes, the race's
    own callback comes off every loser (a shared event keeps its other
    waiters, one left with none is abandoned: a timer cancelled, a
    nested race withdrawn), and every child or ``cancel`` task still
    running is killed, its spans ending ``cancelled``. A race whose last
    waiter leaves first withdraws the same way.
    """

    __slots__ = ("_children", "_tasks")

    def __init__(
        self,
        sim: "Simulation",
        children: Iterable[Any],
        name: str = "any_of",
        deadline: Optional[float] = None,
        cancel: Iterable["Task"] = (),
    ):
        super().__init__(sim, name)
        events: list = []
        tasks = list(cancel)
        for child in children:
            if isinstance(child, Task):
                child._raced = True
                tasks.append(child)
                child = child.done
            events.append(child)
        if not events and deadline is None:
            raise ValueError("AnyOf requires at least one event or a deadline")
        self._children = events
        self._tasks = tasks
        # One bound callback for every child (no closure each): the
        # index is looked up when a child fires. A child listed twice
        # reports its first position, as the first-registered callback
        # always did.
        for ev in events:
            ev.add_callback(self._child_fired)
        if deadline is not None:
            self._shandle = sim._schedule_at(sim._now + deadline, self._expire_deadline)

    def _child_fired(self, ev: Event) -> None:
        if self._fired:
            return
        if ev._exc is None:
            self._decide((self._children.index(ev), ev._value), None)
        else:
            self._decide(None, ev._exc)

    def _expire_deadline(self) -> None:
        self._shandle = None  # popping now
        self._decide(None, Deadline(f"{self.name}: no outcome before its deadline"))

    def _decide(self, value: Any, exc: Optional[BaseException]) -> None:
        self._fired = True
        self._value = value
        self._exc = exc
        if self._shandle is not None:
            self._withdraw_settle()
        if self._callbacks:
            self.sim._schedule_call(self._settle)
        else:
            self._withdraw()

    def _settle(self) -> None:
        self._withdraw()
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def _withdraw(self) -> None:
        cb = self._child_fired
        for ev in self._children:
            if not ev._fired:
                ev.discard_callback(cb)
        for task in self._tasks:
            task.kill()

    def _abandon(self) -> None:
        self.cancel()
        self._withdraw()


class Task:
    """A running coroutine, resumable by the kernel.

    Tasks are created through :meth:`Simulation.spawn`. A task's
    completion is itself awaitable via :meth:`join` (or by yielding
    ``task.done`` directly).
    """

    __slots__ = (
        "sim", "name", "gen", "done", "_waiting_on",
        "trace_parent", "trace_stack", "clock", "tenant", "scope", "_raced",
    )

    def __init__(self, sim: "Simulation", gen: Coroutine, name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "task")
        self.gen = gen
        #: Event fired with the task's return value (or failure).
        self.done = Event(sim, name=f"{self.name}.done")
        #: The event whose callback list holds this task's bound
        #: ``_resume`` (None while running or finished).
        self._waiting_on: Optional[Event] = None
        # The spawning context's innermost open span becomes the
        # ambient parent — what Tracer.current_span() returns, read
        # here without a call into the tracer (a task per RPC).
        spawner = sim._current_task
        if spawner is None:
            root = sim.trace._root_stack
            parent = root[-1] if root else None
        else:
            stack = spawner.trace_stack
            parent = stack[-1] if stack else spawner.trace_parent
        #: Ambient parent span inherited from the spawning context and
        #: this task's own span stack (see repro.sim.trace.Tracer).
        self.trace_parent: Optional[Any] = parent
        self.trace_stack: Optional[list] = None
        #: Logical clock: number of times the kernel has resumed this
        #: task. Two accesses with the same clock value happened inside
        #: one uninterrupted run slice (no yield between them) — the
        #: happens-before primitive SimTSan builds on.
        self.clock = 0
        #: Tenant attribution for fair-share scheduling: RPC handlers
        #: stamp the tenant owning the work so shared resources (e.g.
        #: an xstream core in fair-share mode) can group by it; a task
        #: inherits its spawner's. None means unattributed (legacy FIFO
        #: behaviour).
        self.tenant: Optional[str] = None if spawner is None else spawner.tenant
        #: The owning process, inherited like ``tenant``: what a crash kills.
        self.scope: Optional[str] = None if spawner is None else spawner.scope
        #: A race's child: its exception is the race's outcome.
        self._raced = False

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the task has run to completion (or been killed)."""
        return self.done.fired

    def join(self) -> Event:
        """Event that fires with the task's return value."""
        return self.done

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the task at its current yield.

        Interrupting a finished task raises :class:`SimulationError`:
        there is no yield point left to deliver the interrupt to, so
        the caller is acting on a stale handle (check
        :attr:`finished` first when the race is expected). The task
        may catch the interrupt and continue.
        """
        if self.finished:
            raise SimulationError(
                f"interrupt() on finished task {self.name!r} "
                f"(cause: {cause!r})"
            )
        self._detach()
        self.sim._schedule_call(lambda: self._step(None, Interrupt(cause)))

    def kill(self) -> None:
        """Forcibly terminate the task; ``done`` fails with :class:`Killed`.

        Its open spans end first, innermost first, tagged ``cancelled=True``
        (``gen.close()`` runs outside its context, so they could not).
        """
        if self.finished:
            return
        self._detach()
        stack = self.trace_stack
        while stack:
            self.sim.trace.end(stack.pop(), cancelled=True)
        self.gen.close()
        self.done.fail(Killed(f"task {self.name} killed"))

    # ------------------------------------------------------------------
    # kernel internals
    def _detach(self) -> None:
        # Bound methods of one task compare equal, so this removes the
        # ``_resume`` that ``_step`` registered.
        if self._waiting_on is not None:
            self._waiting_on.discard_callback(self._resume)
        self._waiting_on = None

    def _start(self) -> None:
        self._step(None, None)

    def _resume(self, ev: Event) -> None:
        """The callback a waiting task leaves on its event: one bound
        method per task, not a closure per yield."""
        self._waiting_on = None
        self._step(ev._value, ev._exc)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        done = self.done
        if done._fired:
            return
        # Switch instrumentation: one tick per resume, globally and on
        # the task's own logical clock (plain int bumps — cheap enough
        # to stay unconditional; SimTSan reads them lazily).
        sim = self.sim
        sim._switch_epoch += 1
        self.clock += 1
        sim._current_task = self
        try:
            if exc is not None:
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            done.succeed(stop.value)
            return
        except Killed as killed:
            done.fail(killed)
            return
        except BaseException as err:
            done.fail(err)
            if sim.strict and not self._raced:
                raise
            return
        finally:
            sim._current_task = None
        if not isinstance(target, Event):
            err = SimulationError(
                f"task {self.name!r} yielded {target!r}; tasks must yield Event objects"
            )
            done.fail(err)
            raise err
        self._waiting_on = target
        target.add_callback(self._resume)


class Simulation:
    """The event loop: simulated clock + deterministic scheduler.

    Parameters
    ----------
    seed:
        Seed for the simulation-owned :class:`~repro.sim.rng.RngRegistry`
        (named deterministic random streams).
    strict:
        When true (default), an uncaught exception in any task aborts
        :meth:`run`; when false, the failure is recorded on the task's
        ``done`` event only.
    controller:
        An exploration driver (the protocol in the module docstring)
        deciding every choice between same-time events while armed.
        ``None`` falls back to the ambient :func:`controlled_ties`
        context, then to plain FIFO with the run lane.
    """

    def __init__(
        self,
        seed: int = 0,
        strict: bool = True,
        controller: Optional[Any] = None,
    ):
        self._now = 0.0
        self._queue = EventQueue()
        self._seq = itertools.count()
        self.strict = strict
        if controller is None:
            controller = _default_controller
        #: Exploration driver for same-timestamp choices (None = FIFO).
        self._controller: Optional[Any] = controller
        #: The run lane: calls due now, in dispatch order, ahead of the
        #: whole heap (module docstring). None under a controller, which
        #: needs a key per call.
        self._lane: Optional[deque] = deque() if controller is None else None
        self._lane_pushes = 0
        # The queue's heap, to test "nothing due now" without a call
        # (EventQueue never rebinds it).
        self._heap = self._queue._heap
        #: Global resume counter (see Task.clock).
        self._switch_epoch = 0
        #: Installed SimTSan detector, if any (repro.analysis.simtsan).
        self._simtsan: Optional[Any] = None
        self._current_task: Optional[Task] = None
        self.tasks: list[Task] = []
        # Finished tasks are pruned amortizedly (long runs spawn one
        # task per RPC dispatch; retaining them all is a memory leak).
        self._task_prune_at = 1024
        # Named interception points (see add_interceptor). Kept as a
        # plain dict that every hook site probes (``point in
        # sim._interceptors``) before calling intercept(): a run with
        # nothing installed pays one membership test per site, no call.
        # remove_interceptor drops a point whose list empties, so the
        # probe stays exact.
        self._interceptors: dict[str, list[Callable[..., Any]]] = {}
        # Deferred import keeps kernel importable standalone.
        from repro.sim.rng import RngRegistry

        self.rng = RngRegistry(seed)
        from repro.sim.trace import Tracer

        self.trace = Tracer(self)
        from repro.telemetry.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def current_task(self) -> Optional[Task]:
        """The task currently executing (None outside task context)."""
        return self._current_task

    # ------------------------------------------------------------------
    # interception points (fault injection / instrumentation)
    def add_interceptor(self, point: str, fn: Callable[..., Any]) -> None:
        """Register ``fn`` at a named interception point.

        Library layers consult points (``"na.send"``, ``"na.rdma"``,
        ``"hg.handler"``, ``"margo.compute"``, ``"ssg.gossip"``) via
        :meth:`intercept` at well-defined places in their fast paths,
        each site testing ``point in sim._interceptors`` first;
        fault-injection and instrumentation tools hook in without
        subclassing. Interceptors at one point are consulted in
        registration order; the first non-``None`` return value wins.
        """
        self._interceptors.setdefault(point, []).append(fn)

    def remove_interceptor(self, point: str, fn: Callable[..., Any]) -> None:
        """Unregister ``fn`` from ``point`` (no-op if absent)."""
        fns = self._interceptors.get(point)
        if not fns:
            return
        try:
            fns.remove(fn)
        except ValueError:
            return
        if not fns:
            del self._interceptors[point]

    def intercept(self, point: str, *args: Any) -> Any:
        """Consult ``point``; returns the first non-None verdict (or None)."""
        fns = self._interceptors.get(point)
        if not fns:
            return None
        for fn in fns:
            verdict = fn(*args)
            if verdict is not None:
                return verdict
        return None

    # ------------------------------------------------------------------
    # construction of events
    def event(self, name: str = "") -> Event:
        """A fresh manual event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "timeout") -> Event:
        """Event firing ``delay`` simulated seconds from now.

        The returned event is cancelable (:meth:`Event.cancel`): a timer
        whose race was lost — an RPC reply arriving before its deadline —
        can be withdrawn from the queue instead of firing into nothing.
        """
        if not delay >= 0:  # negative, or NaN (which no comparison rejects)
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        ev = Event(self, name)
        fire = ev.succeed if self._lane is None else ev._expire
        ev._shandle = self._schedule_at(self._now + delay, fire, value)
        return ev

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Combinator: fires when all ``events`` fired (list of values)."""
        return AllOf(self, events)

    def any_of(
        self,
        children: Iterable[Any],
        deadline: Optional[float] = None,
        cancel: Iterable[Task] = (),
    ) -> AnyOf:
        """A race (:class:`AnyOf`): the first outcome wins, the losers end."""
        return AnyOf(self, children, deadline=deadline, cancel=cancel)

    def deadline(self, ev: Event, delay: float, expire: Callable[[Any], None], arg: Any) -> Event:
        """Unless ``ev`` fires within ``delay`` seconds, ``expire(arg)``
        runs then (and should fire it): one event, no timer raced."""
        ev._shandle = self._schedule_at(self._now + delay, expire, arg)
        return ev

    # ------------------------------------------------------------------
    # task management
    def spawn(self, gen: Coroutine, name: str = "") -> Task:
        """Create a task from a generator and schedule its first step."""
        task = Task(self, gen, name)
        self.tasks.append(task)
        if len(self.tasks) >= self._task_prune_at:
            self._prune_tasks()
        self._schedule_call(task._start)
        return task

    def _prune_tasks(self) -> None:
        """Drop finished tasks; amortized O(1) per spawn, deterministic
        (triggered purely by the spawn count, never by memory/GC state)."""
        self.tasks = [t for t in self.tasks if not t.done._fired]
        self._task_prune_at = max(1024, 2 * len(self.tasks))

    def kill_scope(self, scope: str) -> None:
        """End a process: detach every unfinished task of ``scope`` (so
        none resumes from what killing another fires), then kill each."""
        doomed = [t for t in self.tasks if t.scope == scope and not t.done._fired]
        for task in doomed:
            task._detach()
        for task in doomed:
            task.kill()

    def spawn_at(self, when: float, gen: Coroutine, name: str = "") -> Task:
        """Spawn a task whose first step runs at absolute time ``when``."""
        if not when >= self._now:  # in the past, or NaN
            raise ValueError(f"spawn_at({when}) is in the past (now={self._now})")
        task = Task(self, gen, name)
        self.tasks.append(task)
        self._schedule_at(when, task._start)
        return task

    # ------------------------------------------------------------------
    # the loop
    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulated time at which the run stopped. The clock
        is advanced to ``until`` when given, even if the queue drained
        earlier.
        """
        if self._controller is not None:
            return self._run_controlled(until)
        limit = FOREVER if until is None else until
        if self._now > limit:
            return self._now  # nothing is due before now, lane included
        # One queue call per event: pop_until skips tombstones, checks
        # the horizon and consumes the entry in a single method call.
        pop_until = self._queue.pop_until
        no_arg = NO_ARG
        lane = self._lane if self._lane is not None else _NO_LANE
        popleft = lane.popleft
        while True:
            while lane:
                call, arg = popleft()
                if arg is no_arg:
                    call()
                else:
                    call(arg)
            entry = pop_until(limit)
            if entry is None:
                break
            self._now, _key, call, arg = entry
            if arg is no_arg:
                call()
            else:
                call(arg)
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def step(self) -> bool:
        """Process a single scheduled call; False when queue is empty."""
        ctl = self._controller
        if self._lane:
            call, arg = self._lane.popleft()
        else:
            if ctl is None:
                entry = self._queue.pop()
            else:
                entry = self._controlled_take(None)
            if entry is None:
                return False
            self._now = entry[0]
            call, arg = entry[2], entry[3]
            if ctl is not None:
                ctl.begin_step(self, entry)
            elif getattr(call, "__func__", None) is Event._expire:
                # One call per step: the timer's waiter takes the next.
                call = call.__self__.succeed
        if arg is NO_ARG:
            call()
        else:
            call(arg)
        return True

    def _controlled_take(self, until: Optional[float]) -> Optional[tuple]:
        """Select the next event under an exploration driver.

        While the driver is armed and two or more live entries share
        the earliest timestamp, the driver chooses which fires (a
        *choice point*); otherwise this is a plain pop. Returns the
        consumed ``(when, key, call, arg)`` tuple, or None when idle
        (or past ``until``).
        """
        queue = self._queue
        when = queue.peek_when()
        if when is None or (until is not None and when > until):
            return None
        ctl = self._controller
        if ctl.armed:
            candidates = queue.frontier(when)
            if len(candidates) > 1:
                entry = candidates[ctl.choose(self, when, candidates)]
                return queue.take(entry)
        return queue.pop()

    def _run_controlled(self, until: Optional[float]) -> float:
        """The :meth:`run` loop with an exploration driver interposed."""
        ctl = self._controller
        no_arg = NO_ARG
        while True:
            popped = self._controlled_take(until)
            if popped is None:
                break
            self._now = popped[0]
            call, arg = popped[2], popped[3]
            ctl.begin_step(self, popped)
            if arg is no_arg:
                call()
            else:
                call(arg)
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def peek(self) -> Optional[float]:
        """Time of the next scheduled call, or None if idle."""
        return self._now if self._lane else self._queue.peek_when()

    # ------------------------------------------------------------------
    # queue observability (chaos monitors, perf-budget tests, benches)
    @property
    def queue_depth(self) -> int:
        """Live (non-canceled) entries currently scheduled."""
        return len(self._queue) + len(self._lane or ())

    @property
    def queue_tombstones(self) -> int:
        """Canceled entries awaiting compaction."""
        return self._queue.tombstones

    def queue_stats(self) -> dict:
        """Event-queue op counters; also publishes them as gauges under
        the ``sim`` metrics scope (``sim.event_queue_*``), so the chaos
        monitor and bench reports observe compaction behaviour.

        ``pushes`` / ``pops`` / ``depth`` are calls scheduled, dispatched
        and waiting, whether they went through the heap or the run lane
        (a waiter a timer resumed from its own pop is neither scheduled
        nor dispatched); ``peak_depth`` is the heap's high-water mark."""
        stats = self._queue.stats()
        waiting = len(self._lane or ())
        stats["pushes"] += self._lane_pushes
        stats["pops"] += self._lane_pushes - waiting
        stats["depth"] += waiting
        scope = self.metrics.scope("sim")
        scope.gauge("event_queue_depth").set(stats["depth"])
        scope.gauge("event_queue_tombstones").set(stats["tombstones"])
        scope.gauge("event_queue_peak_depth").set(stats["peak_depth"])
        return stats

    # ------------------------------------------------------------------
    # kernel internals
    def _schedule_at(
        self, when: float, call: Callable[..., Any], arg: Any = NO_ARG
    ) -> list:
        """Schedule ``call`` (optionally with one argument — saving a
        closure allocation on the hottest paths) at absolute time
        ``when``. Returns the queue handle (cancelable)."""
        return self._queue.push(when, next(self._seq), call, arg)

    def _schedule_call(self, call: Callable[..., Any], arg: Any = NO_ARG) -> None:
        """``_schedule_at(now, ...)`` without a handle: every wake-up of
        every waiter goes through here — onto the run lane when the heap
        holds nothing due now, else pushed directly."""
        lane = self._lane
        if lane is not None:
            heap = self._heap
            if not heap or heap[0][0] > self._now:
                lane.append((call, arg))
                self._lane_pushes += 1
                return
        self._queue.push(self._now, next(self._seq), call, arg)

    def schedule_many(
        self, items: Iterable[tuple], relative: bool = False
    ) -> list:
        """Batch-schedule ``(when, call)`` or ``(when, call, arg)`` items.

        Items are assigned sequence keys in iteration order — exactly
        the order a loop of individual ``timeout``/``_schedule_at``
        calls would have produced — then inserted in one O(n + m)
        heapify when the batch is large. ``relative=True`` interprets
        each ``when`` as a delay from now. Returns the handles.
        """
        now = self._now
        seq = self._seq
        specs = []
        for item in items:
            when, call = item[0], item[1]
            arg = item[2] if len(item) > 2 else NO_ARG
            if relative:
                when = now + when
            if not when >= now:  # in the past, or NaN
                raise ValueError(f"schedule_many({item[0]!r}) is in the past (now={now})")
            specs.append((when, next(seq), call, arg))
        return self._queue.push_many(specs)
