"""Unit tests for the DES kernel: clock, events, tasks, combinators."""

import pytest

from repro.sim import AllOf, AnyOf, Event, Interrupt, Killed, Simulation, SimulationError


@pytest.fixture
def sim():
    return Simulation(seed=42)


# ---------------------------------------------------------------------------
# clock & timeouts
def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_timeout_advances_clock(sim):
    seen = []

    def body(sim):
        yield sim.timeout(1.5)
        seen.append(sim.now)

    sim.spawn(body(sim))
    sim.run()
    assert seen == [1.5]


def test_timeout_value_passthrough(sim):
    got = []

    def body(sim):
        value = yield sim.timeout(1.0, value="payload")
        got.append(value)

    sim.spawn(body(sim))
    sim.run()
    assert got == ["payload"]


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-0.1)


@pytest.mark.parametrize("schedule", [
    lambda sim: sim.timeout(float("nan")),
    lambda sim: sim.spawn_at(float("nan"), iter(())),
    lambda sim: sim.schedule_many([(float("nan"), print)]),
    lambda sim: sim.schedule_many([(float("nan"), print)], relative=True),
])
def test_nan_time_rejected(sim, schedule):
    """``nan < 0`` is false: a NaN delay used to be queued, and the clock
    read NaN while it fired."""
    with pytest.raises(ValueError):
        schedule(sim)
    assert sim.queue_depth == 0
    sim.run()
    assert sim.now == 0.0


def test_schedule_many_into_the_past_rejected(sim):
    """It used to be accepted, and the next ``run`` set the clock back."""
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.schedule_many([(1.0, print)])
    with pytest.raises(ValueError):
        sim.schedule_many([(-1.0, print)], relative=True)
    fired = []
    sim.schedule_many([(5.0, fired.append, "now")])
    sim.schedule_many([(1.0, fired.append, "in 1 s")], relative=True)
    sim.run()
    assert fired == ["now", "in 1 s"] and sim.now == 6.0


def test_run_until_stops_clock(sim):
    def body(sim):
        yield sim.timeout(10.0)

    sim.spawn(body(sim))
    stopped = sim.run(until=3.0)
    assert stopped == 3.0
    assert sim.now == 3.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_advances_clock_even_when_idle(sim):
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_deterministic_same_time_ordering(sim):
    order = []

    def body(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(body(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_step_and_peek(sim):
    def body(sim):
        yield sim.timeout(2.0)

    sim.spawn(body(sim))
    assert sim.peek() == 0.0  # the task's first step
    assert sim.step()
    assert sim.peek() == 2.0
    while sim.step():
        pass
    assert sim.peek() is None


# ---------------------------------------------------------------------------
# events
def test_event_succeed_resumes_waiter(sim):
    ev = sim.event("door")
    got = []

    def waiter(sim, ev):
        value = yield ev
        got.append((sim.now, value))

    def opener(sim, ev):
        yield sim.timeout(4.0)
        ev.succeed("open")

    sim.spawn(waiter(sim, ev))
    sim.spawn(opener(sim, ev))
    sim.run()
    assert got == [(4.0, "open")]


def test_event_fail_throws_into_waiter(sim):
    ev = sim.event()
    caught = []

    def waiter(sim, ev):
        try:
            yield ev
        except RuntimeError as err:
            caught.append(str(err))

    def failer(sim, ev):
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    sim.spawn(waiter(sim, ev))
    sim.spawn(failer(sim, ev))
    sim.run()
    assert caught == ["boom"]


def test_waiting_on_fired_event_resumes_immediately(sim):
    ev = sim.event()
    ev.succeed(99)
    got = []

    def waiter(sim, ev):
        value = yield ev
        got.append((sim.now, value))

    sim.spawn(waiter(sim, ev))
    sim.run()
    assert got == [(0.0, 99)]


def test_event_double_fire_rejected(sim):
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_event_value_before_fire_rejected(sim):
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception_instance(sim):
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_multiple_waiters_all_resumed(sim):
    ev = sim.event()
    got = []

    def waiter(sim, ev, tag):
        value = yield ev
        got.append((tag, value))

    for tag in range(3):
        sim.spawn(waiter(sim, ev, tag))

    def opener(sim, ev):
        yield sim.timeout(1.0)
        ev.succeed("x")

    sim.spawn(opener(sim, ev))
    sim.run()
    assert sorted(got) == [(0, "x"), (1, "x"), (2, "x")]


# ---------------------------------------------------------------------------
# tasks
def test_task_return_value_via_join(sim):
    def child(sim):
        yield sim.timeout(2.0)
        return 123

    def parent(sim, out):
        task = sim.spawn(child(sim))
        value = yield task.join()
        out.append((sim.now, value))

    out = []
    sim.spawn(parent(sim, out))
    sim.run()
    assert out == [(2.0, 123)]


def test_task_exception_propagates_to_joiner(sim):
    sim.strict = False

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent(sim, out):
        task = sim.spawn(child(sim))
        try:
            yield task.join()
        except ValueError as err:
            out.append(str(err))

    out = []
    sim.spawn(parent(sim, out))
    sim.run()
    assert out == ["child died"]


def test_strict_mode_raises_uncaught_task_exception(sim):
    def bad(sim):
        yield sim.timeout(0.5)
        raise KeyError("oops")

    sim.spawn(bad(sim))
    with pytest.raises(KeyError):
        sim.run()


def test_yield_non_event_is_error(sim):
    def bad(sim):
        yield 42  # type: ignore[misc]

    sim.spawn(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_interrupt_thrown_into_task(sim):
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(sim, victim):
        yield sim.timeout(3.0)
        victim.interrupt("wake up")

    victim = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, victim))
    sim.run()
    assert log == [(3.0, "wake up")]


def test_interrupt_finished_task_raises(sim):
    def quick(sim):
        yield sim.timeout(0.1)

    task = sim.spawn(quick(sim), name="quick")
    sim.run()
    with pytest.raises(SimulationError, match="quick"):
        task.interrupt()


def test_kill_fails_done_with_killed(sim):
    def sleeper(sim):
        yield sim.timeout(100.0)

    task = sim.spawn(sleeper(sim))
    sim.run(until=1.0)
    task.kill()
    assert task.finished
    with pytest.raises(Killed):
        _ = task.done.value


def test_killed_task_does_not_resume(sim):
    log = []

    def sleeper(sim):
        yield sim.timeout(5.0)
        log.append("resumed")

    task = sim.spawn(sleeper(sim))
    sim.run(until=1.0)
    task.kill()
    sim.run()
    assert log == []


def test_kill_ends_the_tasks_open_spans_innermost_first_as_cancelled(sim):
    ended = []
    sim.trace.on_end.append(lambda span: ended.append((span.name, sim.now)))
    handles = []

    def body(sim):
        with sim.trace.span("outer"):
            with sim.trace.span("middle"):
                handles.append(sim.trace.begin("inner"))
                yield sim.timeout(100.0)

    task = sim.spawn(body(sim), name="worker")
    sim.run(until=1.0)
    # Ended out of the task's context: the span stays on its stack, ended.
    sim.trace.end(handles[0], status="ended elsewhere")
    sim.run(until=2.0)
    task.kill()
    assert ended == [("inner", 1.0), ("middle", 2.0), ("outer", 2.0)]
    rows = {span.name: span for span in sim.trace.spans}
    assert rows["inner"].tags == {"status": "ended elsewhere"}
    assert rows["middle"].tags == rows["outer"].tags == {"cancelled": True}
    assert not sim.trace.spans.open and not task.trace_stack


def test_kill_scope_kills_its_tasks_and_their_descendants_only(sim):
    ended = []
    sim.trace.on_end.append(lambda span: ended.append(span.name))

    def sleeper(sim, name):
        with sim.trace.span(name):
            yield sim.timeout(100.0)

    def parent(sim, name):
        sim.spawn(sleeper(sim, f"{name}-child"), name=f"{name}-child")
        yield from sleeper(sim, name)

    roots = {}
    for scope in ("p0", "p1"):
        roots[scope] = sim.spawn(parent(sim, scope), name=scope)
        roots[scope].scope = scope
    sim.spawn(sleeper(sim, "unscoped"), name="unscoped")
    sim.run(until=1.0)
    sim.kill_scope("p0")
    assert ended == ["p0", "p0-child"]  # spawn order
    by_name = {t.name: t for t in sim.tasks}
    assert by_name["p0-child"].scope == "p0" and by_name["p1-child"].scope == "p1"
    assert [name for name, t in by_name.items() if t.finished] == ["p0", "p0-child"]
    sim.run()
    assert sorted(ended) == ["p0", "p0-child", "p1", "p1-child", "unscoped"]


def test_spawn_at_future(sim):
    log = []

    def body(sim):
        log.append(sim.now)
        yield sim.timeout(0)

    sim.spawn_at(5.0, body(sim))
    sim.run()
    assert log == [5.0]


def test_spawn_at_past_rejected(sim):
    sim.run(until=10.0)
    with pytest.raises(ValueError):
        sim.spawn_at(5.0, iter(()))  # type: ignore[arg-type]


def test_current_task_visible_during_step(sim):
    seen = []

    def body(sim):
        seen.append(sim.current_task.name)
        yield sim.timeout(0)

    sim.spawn(body(sim), name="worker")
    sim.run()
    assert seen == ["worker"]
    assert sim.current_task is None


# ---------------------------------------------------------------------------
# combinators
def test_all_of_collects_values_in_order(sim):
    got = []

    def body(sim):
        events = [sim.timeout(3.0, "slow"), sim.timeout(1.0, "fast")]
        values = yield AllOf(sim, events)
        got.append((sim.now, values))

    sim.spawn(body(sim))
    sim.run()
    assert got == [(3.0, ["slow", "fast"])]


def test_all_of_empty_fires_immediately(sim):
    got = []

    def body(sim):
        values = yield sim.all_of([])
        got.append((sim.now, values))

    sim.spawn(body(sim))
    sim.run()
    assert got == [(0.0, [])]


def test_all_of_propagates_failure(sim):
    ev = sim.event()
    got = []

    def body(sim, ev):
        try:
            yield sim.all_of([sim.timeout(10.0), ev])
        except RuntimeError as err:
            got.append((sim.now, str(err)))

    def failer(sim, ev):
        yield sim.timeout(2.0)
        ev.fail(RuntimeError("bad"))

    sim.spawn(body(sim, ev))
    sim.spawn(failer(sim, ev))
    sim.run()
    assert got == [(2.0, "bad")]


def test_any_of_first_wins(sim):
    got = []

    def body(sim):
        index, value = yield AnyOf(sim, [sim.timeout(5.0, "a"), sim.timeout(2.0, "b")])
        got.append((sim.now, index, value))

    sim.spawn(body(sim))
    sim.run()
    assert got == [(2.0, 1, "b")]


def test_any_of_requires_events(sim):
    with pytest.raises(ValueError):
        AnyOf(sim, [])


# ---------------------------------------------------------------------------
# composition with yield from
def test_yield_from_subroutine_returns_value(sim):
    def leaf(sim):
        yield sim.timeout(1.0)
        return "leaf-value"

    def mid(sim):
        value = yield from leaf(sim)
        yield sim.timeout(1.0)
        return value + "!"

    got = []

    def root(sim):
        value = yield from mid(sim)
        got.append((sim.now, value))
        yield sim.timeout(0)

    sim.spawn(root(sim))
    sim.run()
    assert got == [(2.0, "leaf-value!")]


def test_fail_on_already_fired_event_raises(sim):
    ev = sim.event("verdict")
    ev.succeed("ok")
    with pytest.raises(SimulationError, match="verdict"):
        ev.fail(RuntimeError("late failure"))


def test_fail_on_already_failed_event_raises(sim):
    sim.strict = False
    ev = sim.event("verdict")
    ev.fail(RuntimeError("first"))
    with pytest.raises(SimulationError, match="verdict"):
        ev.fail(RuntimeError("second"))


def test_any_of_propagates_failure(sim):
    ev = sim.event()
    got = []

    def body(sim, ev):
        try:
            yield sim.any_of([sim.timeout(10.0), ev])
        except RuntimeError as err:
            got.append((sim.now, str(err)))

    def failer(sim, ev):
        yield sim.timeout(2.0)
        ev.fail(RuntimeError("bad"))

    sim.spawn(body(sim, ev))
    sim.spawn(failer(sim, ev))
    sim.run()
    assert got == [(2.0, "bad")]


def test_all_of_second_failure_does_not_double_fire(sim):
    ev1, ev2 = sim.event("e1"), sim.event("e2")
    got = []

    def body(sim):
        try:
            yield sim.all_of([ev1, ev2])
        except RuntimeError as err:
            got.append(str(err))

    def failer(sim):
        yield sim.timeout(1.0)
        ev1.fail(RuntimeError("first"))
        yield sim.timeout(1.0)
        ev2.fail(RuntimeError("second"))

    sim.spawn(body(sim))
    sim.spawn(failer(sim))
    sim.run()
    assert got == ["first"]  # the combinator must not fail() twice


# ---------------------------------------------------------------------------
# semantics of the flattened paths (succeed/fail inline, bound Task._resume,
# one-callback AnyOf, one queue call per event)
@pytest.mark.parametrize("first", ["succeed", "fail"])
@pytest.mark.parametrize("second", ["succeed", "fail"])
def test_double_fire_names_the_event(sim, first, second):
    ev = sim.event("the-ack")

    def fire(how):
        ev.succeed(1) if how == "succeed" else ev.fail(RuntimeError("x"))

    fire(first)
    with pytest.raises(SimulationError, match="the-ack"):
        fire(second)
    # The first verdict stands.
    assert ev.fired and ev.ok == (first == "succeed")


def test_callback_on_fired_event_runs_through_the_scheduler(sim):
    ev = sim.event()
    ev.succeed(7)
    order = []
    ev.add_callback(lambda fired: order.append(("cb", fired.value)))
    order.append("registered")
    assert order == ["registered"]  # never synchronously
    sim.run()
    assert order == ["registered", ("cb", 7)]


def test_wait_on_fired_event_yields_to_already_scheduled_work(sim):
    log = []

    def peer(sim):
        log.append("peer")
        yield sim.timeout(0)

    def body(sim):
        ev = sim.event()
        ev.succeed("late")
        sim.spawn(peer(sim))  # scheduled before the wait below
        log.append((yield ev))

    sim.spawn(body(sim))
    sim.run()
    assert log == ["peer", "late"] and sim.now == 0.0


def test_interrupt_detaches_and_the_same_event_can_be_awaited_again(sim):
    ev = sim.event("shared")
    log = []

    def waiter(sim):
        try:
            yield ev
        except Interrupt as intr:
            log.append(("interrupted", intr.cause))
        log.append(("resumed", (yield ev)))

    task = sim.spawn(waiter(sim))
    sim.run(until=1.0)
    task.interrupt("nudge")
    sim.run(until=2.0)
    assert log == [("interrupted", "nudge")]
    ev.succeed("payload")
    sim.run()
    # Exactly one resume: the first registration was discarded, the
    # second (an equal bound method) delivered the value.
    assert log == [("interrupted", "nudge"), ("resumed", "payload")]
    assert task.finished and task.done.ok


def test_kill_detaches_and_the_event_still_serves_other_waiters(sim):
    ev = sim.event("shared")
    log = []

    def waiter(sim, tag):
        log.append((tag, (yield ev)))

    victim = sim.spawn(waiter(sim, "victim"))
    sim.run(until=1.0)
    victim.kill()
    survivor = sim.spawn(waiter(sim, "survivor"))
    sim.run(until=2.0)
    pushes = sim.queue_stats()["pushes"]
    ev.succeed("go")
    # One waiter left on the event, so firing it schedules one resume.
    assert sim.queue_stats()["pushes"] == pushes + 1
    sim.run()
    assert log == [("survivor", "go")]
    assert survivor.done.ok and not victim.done.ok


def test_interrupt_of_a_task_waiting_on_a_timer_leaves_the_timer_harmless(sim):
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(5.0)
        except Interrupt:
            log.append(("interrupted", sim.now))
        yield sim.timeout(10.0)
        log.append(("done", sim.now))

    task = sim.spawn(sleeper(sim))
    sim.run(until=1.0)
    task.interrupt()
    sim.run()
    assert log == [("interrupted", 1.0), ("done", 11.0)]
    assert sim.queue_stats()["cancels"] == 1  # its only waiter left the 5 s timer


def test_any_of_with_a_duplicate_child_reports_its_first_index(sim):
    got = []

    def body(sim):
        ev = sim.timeout(1.0, "v")
        got.append((yield AnyOf(sim, [ev, sim.timeout(9.0), ev])))

    sim.spawn(body(sim))
    sim.run()
    assert got == [(0, "v")]


def test_any_of_fails_with_its_first_child_and_ignores_later_ones(sim):
    bad, good = sim.event("bad"), sim.event("good")
    race = AnyOf(sim, [good, bad])
    bad.fail(RuntimeError("first"))
    good.succeed("too late")
    sim.run()
    assert race.fired and not race.ok
    with pytest.raises(RuntimeError, match="first"):
        _ = race.value


def test_any_of_on_already_fired_children_takes_the_lowest_index(sim):
    a, b = sim.event(), sim.event()
    b.succeed("b")
    a.succeed("a")
    race = AnyOf(sim, [a, b])
    assert not race.fired  # through the scheduler, like any wait
    sim.run()
    assert race.value == (0, "a")


class TrackedAnyOf(AnyOf):
    """``Event`` has ``__slots__``; a weak reference needs one more."""

    __slots__ = ("__weakref__",)


def test_cancelled_timer_drops_its_callbacks_and_frees_the_race_by_refcount(sim):
    """``race -> _children -> timer -> _callbacks -> race._child_fired``
    is a cycle for as long as the lost-race timer keeps its callbacks: the
    race withdraws the loser as its waiter resumes (the timer's cancel
    drops them), so the race (and the winner's value with it) dies with
    its last reference, not at the next collection, and a hand-made
    ``cancel()`` afterwards finds nothing left to withdraw."""
    import gc
    import weakref

    seen = []

    def body():
        reply, timer = sim.event(), sim.timeout(5.0)
        race = TrackedAnyOf(sim, [reply, timer])
        seen.append(weakref.ref(race))
        sim.timeout(1.0).add_callback(lambda _ev: reply.succeed("reply"))
        seen.append((yield race))
        seen.append(sim.queue_depth)
        seen.append(timer.cancel())

    gc.disable()
    try:
        sim.spawn(body())
        assert sim.run() == 1.0  # the 5 s timer never pops
        # The kernel's own frames hold the race while it resumes the
        # waiter; once that returned, nothing does.
        assert seen[0]() is None
    finally:
        gc.enable()
    assert seen[1:] == [(0, "reply"), 0, False]
    assert sim.queue_stats()["cancels"] == 1


def test_cancel_under_a_live_direct_waiter_still_detaches_quietly(sim):
    """The waiter of a cancelled timer never resumes; killing it later
    detaches from a callback list that is already empty — a no-op."""
    timer = sim.timeout(2.0)

    def body():
        yield timer

    task = sim.spawn(body())
    sim.run(until=1.0)
    assert timer.cancel() and not timer.cancel()
    task.kill()
    sim.run()
    assert task.finished and not timer.fired and sim.now == 1.0


def test_run_until_fires_the_boundary_and_nothing_past_it(sim):
    fired = []
    head = sim.timeout(0.5)  # canceled below: a tombstone at the heap's head
    sim.timeout(1.0).add_callback(lambda ev: fired.append(sim.now))
    sim.timeout(1.0 + 1e-9).add_callback(lambda ev: fired.append(sim.now))
    assert head.cancel()
    assert sim.queue_tombstones == 1
    assert sim.run(until=1.0) == 1.0
    assert fired == [1.0]
    assert sim.queue_depth == 1 and sim.queue_tombstones == 0  # t+eps still queued
    assert sim.peek() == 1.0 + 1e-9
    sim.run()
    assert fired == [1.0, 1.0 + 1e-9]


def test_run_until_does_not_advance_past_a_queued_entry_or_rewind(sim):
    sim.timeout(3.0)
    assert sim.run(until=2.0) == 2.0 and sim.queue_depth == 1
    assert sim.run(until=1.0) == 2.0  # a horizon in the past changes nothing
    assert sim.queue_depth == 1
    assert sim.run() == 3.0


# ---------------------------------------------------------------------------
# controlled ties (repro.analysis.mcheck rides on this)
def _tie_order(walk):
    from repro.analysis.mcheck import ScheduleController
    from repro.sim import Simulation

    controller = ScheduleController(walk=walk)
    controller.arm()
    sim = Simulation(seed=0, controller=None if walk is None else controller)
    order = []

    def body(sim, tag):
        yield sim.timeout(1.0)
        order.append((sim.now, tag))

    for tag in "abcdef":
        sim.spawn(body(sim, tag))
    sim.run()
    return order


def test_an_armed_walk_permutes_ties_but_never_their_times():
    baseline = _tie_order(None)
    walked = _tie_order(7)
    assert baseline == [(1.0, t) for t in "abcdef"]
    assert walked != baseline  # ties really were permuted
    assert sorted(walked) == baseline  # same events, same times


def test_an_armed_walk_is_seeded():
    assert _tie_order(3) == _tie_order(3)
    assert _tie_order(3) != _tie_order(4)


def test_controlled_ties_context_sets_default():
    from repro.analysis.mcheck import ScheduleController
    from repro.sim import Simulation, controlled_ties

    controller = ScheduleController()
    with controlled_ties(controller):
        inner = Simulation(seed=0)
        assert inner._controller is controller and inner._lane is None
        # An explicit argument still wins over the ambient default.
        other = ScheduleController()
        assert Simulation(seed=0, controller=other)._controller is other
    outer = Simulation(seed=0)
    assert outer._controller is None and outer._lane is not None
