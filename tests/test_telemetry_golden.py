"""Golden-trace regression tests.

One seeded end-to-end ColzaExperiment per controller (MoNA dynamic,
MPI static); the *shape* of each iteration's span subtree — names,
nesting, counts, never timestamps — is committed under
``tests/golden/`` and diffed. Any change to instrumentation points,
RPC fan-out, collective structure, or retry behavior shows up as a
shape diff and must be re-blessed deliberately:

    PYTHONPATH=src python tests/test_telemetry_golden.py

The same runs also pin the acceptance criteria: >= 4 levels of span
nesting in a 4-server/8-client iteration, a loadable Chrome export,
and byte-identical tracer digests across two same-seed runs.
"""

import json
import os

import pytest

from repro.bench.harness import ColzaExperiment
from repro.core.pipelines import IsoSurfaceScript
from repro.na import VirtualPayload
from repro.telemetry import chrome_trace_events, tree_shape, write_chrome_trace

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
CONTROLLERS = ("mona", "mpi")
SEED = 42
ITERATIONS = 2


def _run_experiment(controller: str, seed: int = SEED) -> ColzaExperiment:
    exp = ColzaExperiment(
        4, 8, IsoSurfaceScript(field="dist", isovalues=[1.0]),
        controller=controller, seed=seed,
        width=64, height=64, library="libcolza-iso.so",
    ).setup()
    payload = VirtualPayload((8192,), "float64")
    for iteration in range(1, ITERATIONS + 1):
        exp.run_iteration(iteration, [[(c, payload)] for c in range(8)])
    return exp


def _iterations(exp: ColzaExperiment):
    """The experiment's finished ``colza.iteration`` spans, in id order."""
    return list(exp.sim.trace.find("colza.iteration", pipeline=exp.pipeline_name))


def _iteration_shapes(exp: ColzaExperiment):
    return [tree_shape(span) for span in _iterations(exp)]


def _depth(span) -> int:
    """Longest root-to-leaf span count in the subtree (>= 1)."""
    return 1 + max((_depth(child) for child in span.children), default=0)


def _fixture_path(controller: str) -> str:
    return os.path.join(GOLDEN_DIR, f"trace_shape_{controller}.json")


_CACHE = {}


def _experiment(controller: str) -> ColzaExperiment:
    if controller not in _CACHE:
        _CACHE[controller] = _run_experiment(controller)
    return _CACHE[controller]


# ---------------------------------------------------------------------------
@pytest.mark.parametrize("controller", CONTROLLERS)
def test_span_tree_shape_matches_golden(controller):
    shapes = _iteration_shapes(_experiment(controller))
    with open(_fixture_path(controller)) as fh:
        golden = json.load(fh)
    assert shapes == golden, (
        f"span-tree shape drifted for controller={controller!r}; if the "
        "change is intentional, re-bless with "
        "`PYTHONPATH=src python tests/test_telemetry_golden.py`"
    )


@pytest.mark.parametrize("controller", CONTROLLERS)
def test_iteration_nesting_depth(controller):
    depths = [_depth(span) for span in _iterations(_experiment(controller))]
    assert depths and max(depths) >= 4, depths


def test_server_side_spans_nest_under_client_iteration():
    """The RPC trace context carries parentage across the wire: the
    MoNA collectives run *inside the servers* yet hang off the client's
    iteration span, via execute -> hg.forward -> hg.handler."""
    node = _iterations(_experiment("mona"))[0]
    chain = ("colza.execute", "hg.forward", "hg.handler", "pipeline.execute")
    cursor = [node]
    for name in chain:
        cursor = [hit for n in cursor for hit in n.walk() if hit.name == name]
        assert cursor, f"no {name!r} under the iteration span"
    assert any(n.name.startswith("mona.") for c in cursor for n in c.walk())


@pytest.mark.parametrize("controller", CONTROLLERS)
def test_chrome_export_is_valid(controller, tmp_path):
    exp = _experiment(controller)
    events = chrome_trace_events(exp.sim.trace)
    phases = {e["ph"] for e in events}
    assert "X" in phases  # stacked spans
    assert {"b", "e"} <= phases  # async message transits
    # Async begin/end ids pair up exactly.
    assert (
        sorted(e["id"] for e in events if e["ph"] == "b")
        == sorted(e["id"] for e in events if e["ph"] == "e")
    )
    path = write_chrome_trace(
        exp.sim.trace, str(tmp_path / "trace.json"), metrics=exp.sim.metrics
    )
    with open(path) as fh:
        data = json.load(fh)
    assert data["traceEvents"] == events
    assert data["otherData"]["metrics"]


def test_digest_byte_stable_across_same_seed_runs():
    a = _experiment("mona")
    b = _run_experiment("mona")
    assert a.sim.trace.digest() == b.sim.trace.digest()
    assert [t.__dict__ for t in a.timings] == [t.__dict__ for t in b.timings]


def test_metrics_populated_across_components():
    exp = _experiment("mona")
    names = set(exp.sim.metrics.names())
    for expected in (
        "na.messages_sent", "na.bytes_sent", "mona.collectives",
        "margo.compute_seconds", "ssg.probes", "icet.composites",
        "core.blocks_staged", "core.executes",
    ):
        assert expected in names, f"{expected} missing from {sorted(names)}"


# ---------------------------------------------------------------------------
if __name__ == "__main__":  # re-bless the golden fixtures
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in CONTROLLERS:
        shapes = _iteration_shapes(_run_experiment(name))
        with open(_fixture_path(name), "w") as fh:
            json.dump(shapes, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {_fixture_path(name)} ({len(shapes)} iterations)")
