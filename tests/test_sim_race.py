"""The race primitive (``Simulation.any_of`` / :class:`AnyOf`): the first
outcome wins, and a lost race leaves nothing behind.

Seeded random races over manual events, timers and tasks (some holding a
shared :class:`Resource`, some failing), with and without a deadline. At
the waiter's resume there is exactly one outcome, no race callback is
left on a loser, no loser timer is left in the queue, every losing task
is finished with :class:`Killed` with its spans ended, and the resource
is free again. A waiter killed before any outcome withdraws its race the
same way.
"""

import random

import pytest

from repro.sim import AnyOf, Deadline, Event, Killed, Resource, Simulation, Task

DELAYS = (0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0)


class _Race:
    """One random race: children, the calls that fire its manual events,
    and what the waiter saw."""

    def __init__(self, seed):
        self.rng = rng = random.Random(seed)
        self.sim = sim = Simulation(seed=seed)
        self.res = Resource(sim, capacity=1, name="shared")
        self.children, self.timers, self.tasks, self.firers, self.spans = [], [], [], [], {}
        for i in range(rng.randint(1, 5)):
            kind = rng.choice(("event", "timer", "task", "task"))
            if kind == "event":
                ev = sim.event(f"ev{i}")
                if rng.random() < 0.7:
                    firer = sim.timeout(rng.choice(DELAYS))
                    if rng.random() < 0.8:
                        firer.add_callback(lambda _f, ev=ev, i=i: ev.succeed(f"ev{i}"))
                    else:
                        firer.add_callback(lambda _f, ev=ev, i=i: ev.fail(ValueError(f"ev{i}")))
                    self.firers.append(firer)
                self.children.append(ev)
            elif kind == "timer":
                timer = sim.timeout(rng.choice(DELAYS), value=f"timer{i}")
                self.timers.append(timer)
                self.children.append(timer)
            else:
                task = sim.spawn(self.body(i, rng.choice(DELAYS), rng.random() < 0.2), f"task{i}")
                self.tasks.append(task)
                self.children.append(task)
        self.deadline = rng.choice((None, None, 0.25, 1.0, 2.5))
        if self.deadline is None and not (self.firers or self.timers or self.tasks):
            self.deadline = 4.0  # nothing else would ever decide it
        self.seen = []

    def body(self, i, delay, fails):
        sim = self.sim
        span = self.spans[f"task{i}"] = sim.trace.begin("child", who=i)
        yield from self.res.use(delay)
        if fails:
            raise RuntimeError(f"task{i} failed")
        sim.trace.end(span)
        return f"task{i}"

    def waiter(self):
        race = self.race = AnyOf(self.sim, self.children, deadline=self.deadline)
        try:
            self.seen.append(("value", (yield race)))
        except Exception as err:  # noqa: BLE001 — the outcome under test
            self.seen.append(("error", err))
        self.check_withdrawn()

    def events(self):
        return [c.done if isinstance(c, Task) else c for c in self.children]

    def check_withdrawn(self):
        """What a settled or abandoned race must leave behind: nothing."""
        sim, race = self.sim, self.race
        for ev in self.events():
            assert race._child_fired not in ev._callbacks
        for timer in self.timers:
            assert timer.fired or timer._shandle is None  # fired, or cancelled in the queue
        # The only timers still queued are the manual events' firers; what
        # else is due now are wake-ups, some into tasks already killed.
        queued = {
            id(entry[2].__self__) for entry in sim._queue._heap
            if getattr(entry[2], "__func__", None) in (Event._expire, Event.succeed)
        }
        assert queued == {id(f) for f in self.firers if not f.fired}
        assert race._shandle is None  # nor the race's own deadline
        for task in self.tasks:
            assert task.finished
            if isinstance(task.done._exc, Killed):
                assert self.spans[task.name].end is not None
        assert self.res.in_use == 0


@pytest.mark.parametrize("seed", range(80))
def test_a_race_has_one_outcome_and_its_losers_leave_nothing(seed):
    race = _Race(seed)
    sim = race.sim
    sim.spawn(race.waiter(), "waiter")
    sim.run()
    assert len(race.seen) == 1
    kind, got = race.seen[0]
    outcome = race.race
    if kind == "value":
        index, value = got
        winner = race.events()[index]
        assert winner.ok and winner._value == value
    elif isinstance(got, Deadline):
        assert race.deadline is not None
    else:
        assert any(ev.fired and ev._exc is got for ev in race.events())
    # Later firings changed nothing: the first outcome stands.
    assert outcome.fired and (outcome._exc is None) == (kind == "value")


@pytest.mark.parametrize("seed", range(40))
def test_a_killed_waiter_withdraws_its_race(seed):
    race = _Race(seed)
    sim = race.sim
    waiter = sim.spawn(race.waiter(), "waiter")
    sim.run(until=0.0)
    if race.race.fired:  # decided at t=0: nothing left to withdraw early
        return
    waiter.kill()
    assert race.seen == [] and not race.race.fired
    race.check_withdrawn()
    for task in race.tasks:
        assert isinstance(task.done._exc, Killed)
    assert race.race._shandle is None  # its deadline went with it
    sim.run()
    assert not race.race.fired and race.res.in_use == 0


def test_a_losing_nested_race_withdraws_its_own_children():
    sim = Simulation()
    log = []

    def inner_child():
        try:
            yield sim.timeout(5.0)
        finally:
            log.append(("inner child ends", sim.now))

    def waiter():
        inner = sim.any_of([sim.spawn(inner_child(), "inner")], deadline=4.0)
        log.append((yield sim.any_of([inner, sim.timeout(1.0, "outer")])))

    sim.spawn(waiter(), "waiter")
    sim.run()
    assert log == [("inner child ends", 1.0), (1, "outer")]
    assert sim.now == 1.0  # the inner deadline and the child's timer were cancelled


def test_a_shared_event_keeps_its_other_waiters():
    sim = Simulation()
    shared, log = sim.event("release"), []

    def racer():
        try:
            yield sim.any_of([shared], deadline=1.0)
        except Deadline:
            log.append(("deadline", sim.now))

    def plain():
        log.append((yield shared))

    sim.spawn(racer(), "racer")
    sim.spawn(plain(), "plain")
    sim.run()
    assert log == [("deadline", 1.0)]
    assert len(shared._callbacks) == 1  # the plain waiter's
    shared.succeed("go")
    sim.run()
    assert log == [("deadline", 1.0), "go"]


def test_a_failing_child_task_is_the_outcome_not_a_kernel_abort():
    sim = Simulation()  # strict
    log = []

    def child():
        yield sim.timeout(1.0)
        raise RuntimeError("child failed")

    def waiter():
        try:
            yield sim.any_of([sim.spawn(child(), "child")])
        except RuntimeError as err:
            log.append(str(err))

    sim.spawn(waiter(), "waiter")
    sim.run()
    assert log == ["child failed"]


def test_cancel_tasks_end_with_the_race_whoever_wins():
    sim = Simulation()
    decided, log = sim.event("decided"), []

    def call(i):
        try:
            yield sim.timeout(i)
            if i == 1:
                decided.succeed(i)
        finally:
            log.append((i, sim.now))

    calls = [sim.spawn(call(i), f"call{i}") for i in (1, 2, 3)]
    got = []

    def waiter():
        got.append((yield sim.any_of([decided], cancel=calls)))

    sim.spawn(waiter(), "waiter")
    sim.run()
    assert got == [(0, 1)]
    assert log == [(1, 1.0), (2, 1.0), (3, 1.0)]
    assert [isinstance(t.done._exc, Killed) for t in calls] == [False, True, True]
