"""Unit tests for hierarchical tracing: nesting, inheritance, async
spans, the disabled-is-a-true-no-op contract, and export strictness."""

import json

import pytest

from repro.sim import Simulation
from repro.sim.trace import canonical_tags
from repro.telemetry.tree import tree_shape


# ---------------------------------------------------------------------------
# hierarchy
def test_task_stack_nesting():
    sim = Simulation()

    def body(sim):
        outer = sim.trace.begin("outer")
        inner = sim.trace.begin("inner")
        yield sim.timeout(1.0)
        sim.trace.end(inner)
        sim.trace.end(outer)

    sim.spawn(body(sim), name="t")
    sim.run()
    outer, inner = sim.trace.spans
    assert outer.parent is None
    assert inner.parent == outer.id
    assert outer.children == [inner] and not inner.children


def test_spawn_inherits_ambient_parent():
    sim = Simulation()

    def child(sim):
        span = sim.trace.begin("child.work")
        yield sim.timeout(1.0)
        sim.trace.end(span)

    def parent(sim):
        span = sim.trace.begin("parent")
        task = sim.spawn(child(sim), name="child")
        yield task.join()
        sim.trace.end(span)

    sim.spawn(parent(sim), name="parent")
    sim.run()
    by_name = {s.name: s for s in sim.trace.spans}
    assert by_name["child.work"].parent == by_name["parent"].id
    # The child's span lives on the child's own stack, not the parent's.
    assert by_name["child.work"].task == "child"


def test_async_span_never_becomes_current():
    """A transit row nests under the context it departs from, and
    nothing begun after it nests under it."""
    sim = Simulation()

    def body(sim):
        outer = sim.trace.begin("outer")
        store, transit = sim.trace.spans, sim.trace.depart("na.send", "a", "b", 8)
        nested = sim.trace.begin("nested")
        yield sim.timeout(1.0)
        sim.trace.end(nested)
        sim.trace.arrive(store, transit, False)
        sim.trace.end(outer)

    sim.spawn(body(sim))
    sim.run()
    by_name = {s.name: s for s in sim.trace.spans}
    assert by_name["na.send"].detached
    assert by_name["na.send"].parent == by_name["outer"].id
    # "nested" nests under outer, not under the async transit span.
    assert by_name["nested"].parent == by_name["outer"].id


def test_end_unwinds_unfinished_children():
    sim = Simulation()
    outer = sim.trace.begin("outer")
    sim.trace.begin("leaked")  # never ended explicitly
    sim.trace.end(outer)
    # Ending the parent popped the leaked child; new spans are roots.
    root = sim.trace.begin("fresh")
    assert root.parent is None


def test_span_context_manager_tags_errors():
    sim = Simulation()
    with pytest.raises(RuntimeError):
        with sim.trace.span("phase"):
            raise RuntimeError("boom")
    (span,) = sim.trace.spans
    assert span.end is not None
    assert span.tags["error"] == "RuntimeError"


def test_rpc_style_explicit_parent():
    sim = Simulation()
    caller = sim.trace.begin("hg.forward")
    sim.trace.end(caller)
    handler = sim.trace.begin("hg.handler", parent=caller.id)
    sim.trace.end(handler)
    assert handler.parent == caller.id
    assert caller.children == [handler]


# ---------------------------------------------------------------------------
# disabled tracing is a true no-op
def test_disabled_begin_end_is_noop():
    sim = Simulation()
    fired = []
    sim.trace.on_end.append(fired.append)
    sim.trace.enabled = False

    span = sim.trace.begin("ghost", key="value")
    sim.run(until=1.0)
    sim.trace.end(span, outcome="ok")

    assert not span.recorded
    assert span.id == -1
    assert span.end is None  # end() must not mutate unrecorded spans
    assert "outcome" not in span.tags
    assert list(sim.trace.spans) == []
    assert fired == []

    row = sim.trace.depart("ghost.transit", "a", "b", 8)
    sim.trace.arrive(sim.trace.spans, row, False)
    assert row == -1 and list(sim.trace.spans) == [] and fired == []

    sim.trace.add("counter")
    assert sim.trace.counters == {}


def test_toggle_mid_run():
    sim = Simulation()

    def body(sim):
        a = sim.trace.begin("recorded.before")
        yield sim.timeout(1.0)
        sim.trace.end(a)
        sim.trace.enabled = False
        b = sim.trace.begin("dropped")
        yield sim.timeout(1.0)
        sim.trace.end(b)
        sim.trace.enabled = True
        c = sim.trace.begin("recorded.after")
        yield sim.timeout(1.0)
        sim.trace.end(c)

    sim.spawn(body(sim))
    sim.run()
    names = [s.name for s in sim.trace.spans]
    assert names == ["recorded.before", "recorded.after"]
    # A span begun while disabled stays unrecorded even if ended after
    # re-enabling — no half-open spans can leak into the tree.
    assert all(s.end is not None for s in sim.trace.spans)
    assert sim.trace.digest()  # still exportable


def test_disabled_span_cannot_become_parent():
    sim = Simulation()
    sim.trace.enabled = False
    ghost = sim.trace.begin("ghost")
    sim.trace.enabled = True
    child = sim.trace.begin("real", parent=ghost)
    assert child.parent is None


# ---------------------------------------------------------------------------
# export strictness + determinism
def test_canonical_tags_accepts_primitives_and_rejects_objects():
    import numpy as np

    class FakeAddress:
        uri = "na+sim://3"

        def __str__(self):
            return self.uri

    tags = {"n": 3, "f": 1.5, "s": "x", "lst": [1, 2], "d": {"k": np.int64(7)},
            "addr": FakeAddress(), "none": None}
    out = canonical_tags(tags)
    assert out["addr"] == "na+sim://3"
    assert out["d"] == {"k": 7}
    with pytest.raises(TypeError):
        canonical_tags({"bad": object()})


def test_to_json_is_strict(tmp_path):
    sim = Simulation()
    span = sim.trace.begin("io", handle=object())
    sim.trace.end(span)
    with pytest.raises(TypeError):
        sim.trace.to_json(str(tmp_path / "trace.json"))


def test_digest_stable_and_sensitive():
    def program():
        sim = Simulation(seed=7)

        def body(sim):
            with sim.trace.span("step", i=0):
                yield sim.timeout(2.0)

        sim.spawn(body(sim))
        sim.run()
        return sim

    assert program().trace.digest() == program().trace.digest()
    changed = program()
    changed.trace.add("extra")
    assert changed.trace.digest() != program().trace.digest()


def test_summary_has_quantiles():
    sim = Simulation()
    for i in range(5):
        span = sim.trace.begin("op")
        sim.run(until=sim.now + float(i + 1))
        sim.trace.end(span)
    entry = sim.trace.summary()["op"]
    assert entry["count"] == 5
    assert entry["min"] == pytest.approx(1.0)
    assert entry["max"] == pytest.approx(5.0)
    assert entry["min"] <= entry["p50"] <= entry["p99"] <= entry["max"]


def test_tree_shape_merges_siblings():
    sim = Simulation()
    root = sim.trace.begin("iter")
    for _ in range(3):
        child = sim.trace.begin("stage")
        leaf = sim.trace.begin("na.send")
        sim.trace.end(leaf)
        sim.trace.end(child)
    sim.trace.end(root)
    shape = tree_shape(root)
    assert shape == {
        "name": "iter",
        "count": 1,
        "children": [
            {"name": "stage", "count": 3,
             "children": [{"name": "na.send", "count": 3}]},
        ],
    }
    assert json.loads(json.dumps(shape)) == shape
