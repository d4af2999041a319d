"""The run lane against the kernel it replaced.

``tests/oracles/kernel_heap_only.py`` is ``repro/sim/kernel.py`` as it
was when every scheduled call went through the heap, moved; the only
edit since mirrors a rule the production kernel later adopted (a race
withdraws its losers, and an event abandoned by its last waiter
withdraws its timer), so that both dispatch the same calls. The production kernel keeps same-instant wake-ups on a deque and lets a
timer resume its single waiter from its own pop; both promise the order
the heap would have produced. Here seeded random task programs run on
both and must agree on every dispatch, every clock reading and the trace
digest — under FIFO ties, where the lane is on, and under controlled
ties, where it must be off and draw the oracle's keys.
"""

import random

import pytest

from repro.sim import kernel as production
from tests.oracles import kernel_heap_only as oracle

DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.5)
MAX_TASKS = 60


class _Program:
    """One random program on one kernel. Every choice a task makes comes
    from ``rng`` in execution order, so two kernels that dispatch in the
    same order build the same program — and the first divergence shows in
    ``log`` (and derails everything after it)."""

    def __init__(self, kernel, seed, controller=None):
        self.k = kernel
        if kernel is oracle:
            # The oracle predates ``Simulation(controller=)``: its loops
            # read the driver from the attribute its hook used to set.
            self.sim = kernel.Simulation(seed=seed, strict=False)
            self.sim._controller = controller
        else:
            self.sim = kernel.Simulation(seed=seed, strict=False, controller=controller)
        self.rng = random.Random(seed)
        self.log = []
        self.events = []   # manual events and timers, pending or fired
        self.timers = []
        self.tasks = []

    def note(self, who, what, detail=None):
        self.log.append((self.sim.now, who, what, detail))

    def tick(self, label):
        """A plain scheduled call (what ``schedule_many`` queues)."""
        self.note(label, "tick")

    def pending(self):
        return [ev for ev in self.events if not ev.fired]

    def spawn(self, depth=0, at=None):
        if len(self.tasks) >= MAX_TASKS:
            return None
        name = f"t{len(self.tasks)}"
        body = self.body(name, depth)
        task = self.sim.spawn(body, name) if at is None else self.sim.spawn_at(at, body, name)
        self.tasks.append(task)
        return task

    def body(self, name, depth):
        sim, rng, k = self.sim, self.rng, self.k
        span = sim.trace.begin("task", who=name)
        for step in range(rng.randint(2, 9)):
            op = rng.randrange(16)
            self.note(name, "op", op)
            try:
                if op <= 2:
                    got = yield sim.timeout(rng.choice(DELAYS), value=step)
                    self.note(name, "woke", got)
                elif op == 3:  # a timer others may wait on, cancel, or nobody ever sees
                    timer = sim.timeout(rng.choice(DELAYS), value=name)
                    self.events.append(timer)
                    self.timers.append(timer)
                    if rng.random() < 0.3:
                        timer.add_callback(lambda ev, who=name: self.note(who, "callback", ev.ok))
                elif op == 4:
                    self.events.append(sim.event(f"{name}.{step}"))
                elif op == 5 and self.pending():  # fire mid-step, then keep running
                    ev = rng.choice(self.pending())
                    if ev not in self.timers:
                        if rng.random() < 0.8:
                            ev.succeed((name, step))
                        else:
                            ev.fail(ValueError(f"{name}.{step}"))
                        self.note(name, "fired")
                elif op == 6 and self.events:
                    got = yield rng.choice(self.events)
                    self.note(name, "got", repr(got))
                elif op in (7, 8) and self.events:
                    picks = rng.sample(self.events, min(len(self.events), rng.randint(1, 3)))
                    picks.append(sim.timeout(rng.choice(DELAYS), value="deadline"))
                    combine = sim.any_of if op == 7 else sim.all_of
                    got = yield combine(picks)
                    self.note(name, "combined", repr(got))
                elif op == 9:
                    got = yield sim.all_of([])
                    self.note(name, "all-of-nothing", got)
                elif op == 10 and self.timers:
                    self.note(name, "cancel", rng.choice(self.timers).cancel())
                elif op == 11:
                    other = rng.choice(self.tasks)
                    if not other.finished and other.name != name:
                        if rng.random() < 0.6:
                            other.interrupt((name, step))
                        else:
                            other.kill()
                        self.note(name, "hit", other.name)
                elif op == 12 and depth < 3:
                    now = sim.now
                    child = self.spawn(depth + 1, at=rng.choice((None, now, now + 0.5)))
                    if child is not None and rng.random() < 0.5:
                        got = yield child.join()
                        self.note(name, "joined", repr(got))
                elif op == 13:
                    items = [
                        (rng.choice(DELAYS), self.tick, f"{name}.many{i}") for i in range(rng.randint(1, 4))
                    ]
                    if rng.random() < 0.5:
                        sim.schedule_many(items, relative=True)
                    else:
                        sim.schedule_many([(sim.now + d, call, arg) for d, call, arg in items])
                elif op == 14:
                    inner = sim.trace.begin("inner", who=name, step=step)
                    yield sim.timeout(rng.choice(DELAYS))
                    sim.trace.end(inner, at=sim.now)
                elif op == 15 and rng.random() < 0.3:
                    raise RuntimeError(f"{name} gives up at {step}")
            except k.Interrupt as hit:
                self.note(name, "interrupted", hit.cause)
            except ValueError as err:
                self.note(name, "failed-event", str(err))
        sim.trace.end(span)
        return name

    def drive(self, driver_seed):
        """Advance by a fixed script of run / step / spawn-from-outside
        (its own rng: what the driver does never depends on the kernel),
        recording what the public surface shows after each move."""
        sim, driver = self.sim, random.Random(driver_seed)
        seen = []
        for _ in range(4):
            self.spawn()
        for _ in range(40):
            move = driver.randrange(5)
            if move == 0:
                sim.run(until=sim.now + driver.choice((0.0, 0.25, 0.5, 1.0)))
            elif move == 1:
                sim.run(until=sim.now - 1.0)  # a horizon in the past pops nothing
            elif move == 2:
                for _ in range(driver.randint(1, 6)):
                    seen.append(("step", sim.step(), sim.now))
            elif move == 3:
                self.spawn()
            else:
                self.spawn(at=sim.now + driver.choice((0.0, 0.5)))
            seen.append((move, sim.now, sim.peek(), sim.queue_depth))
        sim.run()
        seen.append(("end", sim.now, sim.peek(), sim.queue_depth))
        return seen


def _both(seed, make_driver=lambda: None):
    """The program of ``seed`` on the oracle, then on the production kernel
    (``make_driver()`` is called once for each: a driver is not shared)."""
    runs = []
    for kernel in (oracle, production):
        program = _Program(kernel, seed, make_driver())
        runs.append((program, program.drive(seed + 1000)))
    return runs


def _assert_same(runs):
    (old, old_seen), (new, new_seen) = runs
    assert new.log == old.log
    assert new_seen == old_seen
    assert new.sim.trace.digest() == old.sim.trace.digest()
    outcome = lambda p: [(t.name, t.done.fired, repr(t.done._value), repr(t.done._exc)) for t in p.tasks]
    assert outcome(new) == outcome(old)
    stats_old, stats_new = old.sim.queue_stats(), new.sim.queue_stats()
    assert stats_new["cancels"] == stats_old["cancels"]
    assert stats_new["depth"] == stats_old["depth"] == 0
    return stats_old, stats_new


@pytest.mark.parametrize("seed", range(60))
def test_random_programs_dispatch_as_on_the_heap_only_kernel(seed):
    runs = _both(seed)
    assert runs[1][0].sim._lane is not None
    stats_old, stats_new = _assert_same(runs)
    assert len(runs[0][0].log) > 20
    # Every call is still counted once in and once out on each side; what the
    # new counts leave out is the waiters timers resumed from their own pop.
    for stats in (stats_old, stats_new):
        assert stats["pushes"] == stats["pops"] + stats["cancels"]
    assert stats_new["pushes"] <= stats_old["pushes"]


class _LastOfTheTie:
    """An exploration driver that always fires the youngest candidate and
    records the key of every call the kernel hands it."""

    armed = True

    def __init__(self):
        self.keys = []

    def choose(self, sim, when, candidates):
        return len(candidates) - 1

    def begin_step(self, sim, popped):
        self.keys.append(popped[1])


@pytest.mark.parametrize("seed", range(12))
def test_controlled_ties_leave_the_lane_off_and_draw_the_oracles_keys(seed):
    drivers = []

    def controlled():
        drivers.append(_LastOfTheTie())
        return drivers[-1]

    runs = _both(seed, controlled)
    assert runs[1][0].sim._lane is None
    stats_old, stats_new = _assert_same(runs)
    assert stats_new == stats_old
    assert drivers[1].keys == drivers[0].keys and len(drivers[0].keys) == stats_old["pops"]


# ---------------------------------------------------------------------------
# what the public surface shows while calls wait on the lane
def test_peek_depth_step_and_stats_see_the_lane():
    sim = production.Simulation()
    order = []
    sim.timeout(2.0).add_callback(lambda ev: order.append("timer"))
    for tag in "ab":
        sim._schedule_call(order.append, tag)  # the heap holds nothing due now: the lane
    assert list(sim._lane) == [(order.append, "a"), (order.append, "b")]
    stats = sim.queue_stats()
    assert (stats["pushes"], stats["pops"], stats["depth"]) == (3, 0, 3)
    assert sim.queue_depth == 3 and sim.peek() == 0.0
    assert sim.metrics.get("sim.event_queue_depth").value == 3

    assert sim.step() and order == ["a"] and sim.now == 0.0
    assert sim.queue_depth == 2 and sim.peek() == 0.0
    assert sim.run(until=1.0) == 1.0 and order == ["a", "b"]
    assert sim.peek() == 2.0 and sim.queue_depth == 1
    sim.run()
    assert order == ["a", "b", "timer"]
    # The timer's one callback ran from the timer's pop: not a fourth call.
    stats = sim.queue_stats()
    assert stats["pushes"] == stats["pops"] == 3 and stats["depth"] == 0


def test_a_tie_in_the_heap_keeps_later_wake_ups_behind_it():
    """``timeout(0)`` goes to the heap with a key; a wake-up scheduled after
    it must not overtake it through the lane, and the timer — popping with
    that wake-up due — must queue its waiter behind it, not resume it."""
    sim = production.Simulation()
    order = []
    sim._schedule_call(order.append, "lane")
    sim.timeout(0).add_callback(lambda ev: order.append("timer's waiter"))
    sim._schedule_call(order.append, "behind the timer")
    assert len(sim._lane) == 1 and len(sim._queue) == 2
    sim.run()
    assert order == ["lane", "behind the timer", "timer's waiter"]


def test_a_lane_left_waiting_by_a_past_horizon_is_not_drained():
    sim = production.Simulation()
    sim.run(until=5.0)
    ran = []
    sim._schedule_call(ran.append, 1)
    assert sim.run(until=3.0) == 5.0 and ran == [] and sim.queue_depth == 1
    assert sim.run(until=5.0) == 5.0 and ran == [1]
