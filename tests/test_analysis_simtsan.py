"""SimTSan: the yield-point race detector (repro.analysis.simtsan)."""

import pytest

from repro.analysis.simtsan import RaceReport, Shared, SimTSan, tracked, untracked
from repro.sim import Simulation


@pytest.fixture
def sim():
    return Simulation(seed=7)


# ---------------------------------------------------------------------------
# the positive case: a seeded atomicity violation must be flagged
def test_read_yield_write_race_is_flagged(sim):
    table = tracked(sim, {"x": 0}, label="demo")

    def reader(sim):
        _stale = table["x"]
        yield sim.timeout(1.0)  # suspended while the writer runs
        _reread = table["x"]

    def writer(sim):
        yield sim.timeout(0.5)
        table["x"] = 42

    sim.spawn(reader(sim), name="reader")
    sim.spawn(writer(sim), name="writer")
    tsan = SimTSan(sim).install()
    sim.run()

    assert len(tsan.races) == 1
    race = tsan.races[0]
    assert isinstance(race, RaceReport)
    assert race.reader == "reader"
    assert race.writer == "writer"
    assert race.key == repr("x")  # keys render as reprs (they can be tuples)
    assert race.label == "demo"
    assert "suspended at a yield point" in race.describe()
    with pytest.raises(AssertionError):
        tsan.assert_clean()


def test_race_emits_span_and_counter(sim):
    table = tracked(sim, {"x": 0}, label="demo")

    def reader(sim):
        _ = table["x"]
        yield sim.timeout(1.0)

    def writer(sim):
        yield sim.timeout(0.5)
        table["x"] = 1

    sim.spawn(reader(sim), name="reader")
    sim.spawn(writer(sim), name="writer")
    SimTSan(sim).install()
    sim.run()

    assert sim.trace.counters.get("simtsan.races") == 1
    spans = [s for s in sim.trace.spans if s.name == "simtsan.race"]
    assert len(spans) == 1
    assert spans[0].tags["reader"] == "reader"
    assert spans[0].tags["writer"] == "writer"


def test_iteration_read_races_with_any_key_write(sim):
    table = tracked(sim, {"a": 1, "b": 2}, label="demo")

    def reader(sim):
        _keys = list(table)  # container-level read
        yield sim.timeout(1.0)

    def writer(sim):
        yield sim.timeout(0.5)
        table["c"] = 3  # any write invalidates the iteration

    sim.spawn(reader(sim), name="reader")
    sim.spawn(writer(sim), name="writer")
    tsan = SimTSan(sim).install()
    sim.run()
    assert len(tsan.races) == 1


# ---------------------------------------------------------------------------
# negative cases: patterns that must NOT be flagged
def test_read_write_same_slice_is_clean(sim):
    """No yield between read and write: an atomic check-then-act."""
    table = tracked(sim, {"x": 0}, label="demo")

    def worker(sim):
        if table["x"] == 0:
            table["x"] = 1  # same task slice — atomic under the kernel
        yield sim.timeout(1.0)

    def other(sim):
        yield sim.timeout(0.5)
        _ = table["x"]  # a read, not a write: never a hazard

    sim.spawn(worker(sim), name="worker")
    sim.spawn(other(sim), name="other")
    tsan = SimTSan(sim).install()
    sim.run()
    tsan.assert_clean()


def test_read_resumed_before_write_is_clean(sim):
    """The reader resumed (and moved on) before the write: whatever it
    read, it already acted on it within its own slice."""
    table = tracked(sim, {"x": 0}, label="demo")

    def reader(sim):
        _ = table["x"]
        yield sim.timeout(0.2)  # resumes before the write below
        yield sim.timeout(2.0)

    def writer(sim):
        yield sim.timeout(1.0)
        table["x"] = 5

    sim.spawn(reader(sim), name="reader")
    sim.spawn(writer(sim), name="writer")
    tsan = SimTSan(sim).install()
    sim.run()
    tsan.assert_clean()


def test_own_write_after_own_read_is_clean(sim):
    table = tracked(sim, {"x": 0}, label="demo")

    def worker(sim):
        _ = table["x"]
        yield sim.timeout(1.0)
        table["x"] = 9  # same task: no interleaving hazard with itself

    sim.spawn(worker(sim), name="worker")
    tsan = SimTSan(sim).install()
    sim.run()
    tsan.assert_clean()


def test_untracked_reads_do_not_arm_detector(sim):
    table = tracked(sim, {"x": 0}, label="demo")

    def observer(sim):
        with untracked(sim):
            _ = table["x"]  # meta-level audit, not protocol state
        yield sim.timeout(1.0)

    def writer(sim):
        yield sim.timeout(0.5)
        table["x"] = 1

    sim.spawn(observer(sim), name="observer")
    sim.spawn(writer(sim), name="writer")
    tsan = SimTSan(sim).install()
    sim.run()
    tsan.assert_clean()


# ---------------------------------------------------------------------------
# plumbing
def test_shared_behaves_like_a_dict(sim):
    table = Shared({"a": 1}, sim=sim, label="t")
    table["b"] = 2
    assert table.setdefault("c", 3) == 3
    assert table.setdefault("a", 99) == 1
    assert dict(table) == {"a": 1, "b": 2, "c": 3}
    assert table.pop("c") == 3
    assert "c" not in table
    assert sorted(table.keys()) == ["a", "b"]
    del table["b"]
    assert len(table) == 1


def test_tracked_rejects_non_mapping(sim):
    with pytest.raises(TypeError):
        tracked(sim, [1, 2, 3], label="nope")


def test_double_install_rejected(sim):
    tsan = SimTSan(sim).install()
    with pytest.raises(RuntimeError):
        SimTSan(sim).install()
    tsan.uninstall()
    SimTSan(sim).install()  # after uninstall a fresh one may attach


def test_uninstalled_detector_records_nothing(sim):
    table = tracked(sim, {"x": 0}, label="demo")

    def reader(sim):
        _ = table["x"]
        yield sim.timeout(1.0)

    def writer(sim):
        yield sim.timeout(0.5)
        table["x"] = 1

    sim.spawn(reader(sim), name="reader")
    sim.spawn(writer(sim), name="writer")
    sim.run()  # no detector installed: Shared is a plain dict
    # nothing to assert beyond "no crash": the wrapper must be inert


# ---------------------------------------------------------------------------
# the stack's own shared state: a fault-free 2PC run must be clean
def test_2pc_activation_run_is_simtsan_clean():
    from repro.chaos.scenarios import _workload, build_stack
    from repro.testing import drive

    ctx = build_stack(seed=0, n_servers=3)
    tsan = SimTSan(ctx.sim).install()
    drive(ctx.sim, _workload(ctx, iterations=1), max_time=600)
    tsan.assert_clean()
    assert not ctx.monitor.violations, ctx.monitor.violations
    tsan.uninstall()


# ---------------------------------------------------------------------------
# opt-in by class switch: free when nobody observes, complete when one does
def _race(sim, table, key):
    """A reader of ``table[key]`` suspended while a writer rewrites it."""

    def reader(sim):
        _ = table.get(key)
        yield sim.timeout(1.0)

    def writer(sim):
        yield sim.timeout(0.5)
        table[key] = "rewritten"

    sim.spawn(reader(sim), name="reader")
    sim.spawn(writer(sim), name="writer")


def test_detector_installed_after_build_stack_observes_the_stack():
    from repro.chaos.scenarios import build_stack

    ctx = build_stack(seed=0, n_servers=3)
    provider = ctx.deployment.live_daemons()[0].provider
    view = provider.agent.view._members
    assert type(provider._active) is Shared and type(view) is Shared
    tsan = SimTSan(ctx.sim).install()
    assert type(provider._active) is not Shared and type(view) is not Shared
    _race(ctx.sim, provider._active, ("p", 1))
    ctx.sim.run(until=ctx.sim.now + 2.0)
    assert [(r.label, r.reader, r.writer) for r in tsan.races] == [
        (provider._active.label, "reader", "writer")
    ]
    tsan.uninstall()
    assert type(provider._active) is Shared and type(view) is Shared
    del provider._active[("p", 1)]


def test_shared_built_after_install_observes_from_birth(sim):
    tsan = SimTSan(sim).install()
    table = tracked(sim, {"x": 0}, label="late")
    _race(sim, table, "x")
    sim.run()
    assert [r.label for r in tsan.races] == ["late"]


def test_uninstall_then_fresh_install_still_observes(sim):
    table = tracked(sim, {"x": 0}, label="demo")
    first = SimTSan(sim).install()
    first.uninstall()
    _race(sim, table, "x")
    sim.run(until=1.0)
    assert first.races == []
    second = SimTSan(sim).install()
    _race(sim, table, "x")
    sim.run()
    assert first.races == [] and len(second.races) == 1


def test_the_registry_keeps_no_container_alive(sim):
    import gc
    import weakref

    table = tracked(sim, {"x": 0}, label="short-lived")
    ref = weakref.ref(table)
    del table
    gc.collect()
    assert ref() is None
    tsan = SimTSan(sim).install()  # switches what is left: nothing
    tsan.uninstall()


def test_unobserved_shared_get_is_the_dict_get_alone(sim):
    """With no detector a read is one call — ``dict.get`` itself, no
    Python frame of this module in between."""
    import cProfile

    table = tracked(sim, {"x": 1}, label="demo")
    profile = cProfile.Profile()
    profile.runcall(table.get, "x")
    calls = {
        entry.code if isinstance(entry.code, str) else entry.code.co_name: entry.callcount
        for entry in profile.getstats()
    }
    calls.pop("<method 'disable' of '_lsprof.Profiler' objects>", None)
    assert calls == {"<method 'get' of 'dict' objects>": 1}
