"""Structural oracle for the single span model.

The ``Tracer`` links a span into its store's child index when the span
begins (stack parent, spawn-inherited parent, or an RPC trace-context
id), and ``Span.children`` reads it back. The reference implementation
lives *here*: rebuild the forest from scratch out of the ``parent`` ids
the tracer serializes and require that ``children`` is exactly that —
on a harness run, on chaos runs (drops, churn, a crash under two
tenants), and on a run that calls ``Tracer.clear()`` with spans still
open.
"""

import pytest

from repro.bench.harness import ColzaExperiment
from repro.chaos import run_scenario
from repro.core.pipelines import IsoSurfaceScript
from repro.na import VirtualPayload
from repro.sim import Simulation


def _reference_forest(spans):
    """Roots and per-span child ids, derived from ``parent`` ids only.
    A parent id that is not among ``spans`` makes the span a root."""
    children = {s.id: [] for s in spans}
    roots = []
    for s in spans:
        if s.parent in children:
            children[s.parent].append(s.id)
        else:
            roots.append(s.id)
    return roots, children


def _assert_children_match_parent_ids(trace, min_spans, min_depth=2):
    spans = trace.spans
    assert len(spans) >= min_spans
    ids = [s.id for s in spans]
    assert ids == list(range(ids[0], ids[0] + len(ids)))  # dense, creation order
    by_id = {s.id: s for s in spans}
    roots, children = _reference_forest(spans)

    listed = {}
    for s in spans:
        linked = [c.id for c in s.children]
        assert linked == children[s.id], f"span #{s.id} {s.name!r}"
        assert linked == sorted(linked)
        for c in s.children:
            assert by_id[c.id] == c and c.parent == s.id
            listed[c.id] = listed.get(c.id, 0) + 1
    # Exactly once under its parent; roots under nobody.
    assert listed == {s.id: 1 for s in spans if s.id not in roots}

    # The forest covers the recording: pre-order from the roots reaches
    # every span once, parents before children.
    walked = [n.id for r in roots for n in by_id[r].walk()]
    assert sorted(walked) == ids
    position = {span_id: i for i, span_id in enumerate(walked)}
    assert all(position[s.parent] < position[s.id] for s in spans if s.id not in roots)

    def depth(s):
        return 1 + max((depth(c) for c in s.children), default=0)

    assert max(depth(by_id[r]) for r in roots) >= min_depth


def _experiment():
    return ColzaExperiment(
        4, 8, IsoSurfaceScript(field="dist", isovalues=[1.0]),
        seed=42, width=64, height=64, library="libcolza-iso.so",
    ).setup()


BLOCKS = [[(c, VirtualPayload((8192,), "float64"))] for c in range(8)]


def test_harness_run():
    exp = _experiment()
    for iteration in (1, 2):
        exp.run_iteration(iteration, BLOCKS)
    _assert_children_match_parent_ids(exp.sim.trace, min_spans=1000, min_depth=5)


@pytest.mark.parametrize("name,seed", [
    ("drop_during_2pc", 3),  # RPC timeouts, retried attempts
    ("churn_stress", 3),  # joins and graceful leaves
    ("tenant_owner_crash_recovery_isolated", 3),  # two tenants, a crash, recovery
])
def test_chaos_scenarios(name, seed):
    result = run_scenario(name, seed=seed)
    assert result.ok, result.violations
    _assert_children_match_parent_ids(result.sim.trace, min_spans=1000, min_depth=4)


def test_clear_with_spans_still_open():
    """``clear()`` drops the recording mid-iteration: spans open on task
    stacks keep handing out their ids as ``parent`` (and as RPC trace
    context), but what begins under them is a root of the new forest
    and is not linked into the dropped span."""
    exp = _experiment()
    exp.run_iteration(1, BLOCKS)
    sim, trace = exp.sim, exp.sim.trace
    task = sim.spawn(exp.iteration_body(2, BLOCKS), name="iteration-2")
    sim.run(until=sim.now + 1e-4)  # staged; the servers are inside execute
    dropped = list(trace.spans)
    still_open = {s.name for s in dropped if s.end is None}
    assert {"colza.iteration", "hg.forward", "hg.handler", "pipeline.execute"} <= still_open
    before = {s.id: list(s.children) for s in dropped}

    trace.clear()
    sim.run(until=sim.now + 60.0)
    assert task.finished
    exp.run_iteration(3, BLOCKS)

    first = trace.spans[0].id
    assert first == dropped[-1].id + 1  # ids keep counting
    orphans = [s for s in trace.spans if s.parent is not None and s.parent < first]
    assert orphans  # begun under a dropped span: id recorded ...
    assert all(list(s.children) == before[s.id] for s in dropped)  # ... but not linked
    # The iteration that began after the clear is whole, RPC-resolved
    # server-side spans included.
    (third,) = trace.find("colza.iteration")
    assert third.tags["iteration"] == 3
    assert any(s.name.startswith("mona.") for s in third.walk())
    _assert_children_match_parent_ids(trace, min_spans=500, min_depth=5)


def test_children_never_reach_records_or_digest():
    def program(tamper):
        sim = Simulation(seed=1)
        with sim.trace.span("outer"):
            sim.trace.end(sim.trace.begin("inner", n=1))
        if tamper:
            sim.trace.spans.last_child[0] = -1  # unlink "inner" from the index
        return sim.trace

    plain, tampered = program(False), program(True)
    assert plain.spans[0].children and not tampered.spans[0].children
    assert plain.digest() == tampered.digest()
    assert plain.to_records() == tampered.to_records()
    assert all("children" not in record for record in plain.to_records())
    assert plain.spans[0] == tampered.spans[0]  # children is not a field
    assert "children" not in repr(plain.spans[0])
