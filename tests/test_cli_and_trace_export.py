"""Tests for the CLI runner and the tracer export helpers. The bytes the exports write on
real runs are rows of ``test_pins.PINS``."""

import json

import pytest

from repro.bench.__main__ import EXPERIMENTS, _jsonable, _parse_arg, main
from repro.sim import Simulation


# ---------------------------------------------------------------------------
# CLI
def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "fig10", "ablation-reduce"):
        assert name in out


def test_cli_no_args_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_cli_unknown_experiment(capsys):
    assert main(["figure99"]) == 2


def test_cli_runs_experiment(capsys):
    assert main(["table1", "--arg", "ops=5"]) == 0
    out = capsys.readouterr().out
    assert "craympich" in out
    assert "done in" in out


def test_cli_json_output(capsys):
    assert main(["fig1a", "--json", "--arg", "check_real_meshes=False"]) == 0
    out = capsys.readouterr().out
    body = out[out.index("{") : out.rindex("}") + 1]
    data = json.loads(body)
    assert len(data["cells_millions"]) == 30


def test_parse_arg():
    assert _parse_arg("ops=100") == ("ops", 100)
    assert _parse_arg("scales=[4, 8]") == ("scales", [4, 8])
    assert _parse_arg("mode=mona") == ("mode", "mona")
    with pytest.raises(SystemExit):
        _parse_arg("no-equals")


def test_jsonable_numpy():
    import numpy as np

    out = _jsonable({"a": np.arange(3), "b": np.float64(1.5), "c": (1, 2)})
    assert out == {"a": [0, 1, 2], "b": 1.5, "c": [1, 2]}


def test_every_registered_experiment_importable():
    import importlib

    for module_name in EXPERIMENTS.values():
        module = importlib.import_module(module_name)
        assert callable(module.run)


# ---------------------------------------------------------------------------
# tracer export
def test_trace_to_records_and_summary():
    sim = Simulation()

    def body(sim):
        for i in range(3):
            span = sim.trace.begin("step", i=i)
            yield sim.timeout(2.0)
            sim.trace.end(span)
        open_span = sim.trace.begin("unfinished")

    sim.spawn(body(sim))
    sim.run()
    records = sim.trace.to_records()
    assert len(records) == 3
    assert records[0]["tags"] == {"i": 0}
    assert records[0]["id"] == 0 and records[0]["parent"] is None
    summary = sim.trace.summary()
    assert summary["step"]["count"] == 3
    assert summary["step"]["total"] == pytest.approx(6.0)
    assert summary["step"]["mean"] == pytest.approx(2.0)
    assert summary["step"]["min"] == pytest.approx(2.0)
    assert summary["step"]["max"] == pytest.approx(2.0)
    assert summary["step"]["p50"] == pytest.approx(2.0, rel=0.01)
    assert summary["step"]["p99"] == pytest.approx(2.0, rel=0.01)
    assert "unfinished" not in summary


def test_trace_to_json(tmp_path):
    sim = Simulation()
    span = sim.trace.begin("io", file="x")
    sim.run(until=1.5)
    sim.trace.end(span)
    sim.trace.add("bytes", 42)
    path = sim.trace.to_json(str(tmp_path / "trace.json"))
    data = json.loads(open(path).read())
    assert data["spans"][0]["name"] == "io"
    assert data["spans"][0]["end"] == 1.5
    assert data["counters"]["bytes"] == 42


def test_export_files_are_byte_identical_to_json_dump(tmp_path):
    """Both writers hand ``json.dumps`` output to the file in one go;
    the bytes must be what streaming ``json.dump`` used to produce."""
    import io

    from repro.telemetry import chrome_trace_events, write_chrome_trace

    sim = Simulation()

    def body(sim):
        with sim.trace.span("outer", n=1, ratio=0.1, who=None):
            transit = sim.trace.begin_async("na.send", nbytes=2**40, label="é")
            yield sim.timeout(1e-7)
            sim.trace.end(transit, dropped=False)

    sim.spawn(body(sim), name="t")
    sim.run()
    sim.trace.add("bytes", 42)

    reference = io.StringIO()
    json.dump({"spans": sim.trace.to_records(), "counters": dict(sim.trace.counters)},
              reference, indent=2)
    with open(sim.trace.to_json(str(tmp_path / "trace.json"))) as fh:
        assert fh.read() == reference.getvalue()

    reference = io.StringIO()
    json.dump({"traceEvents": chrome_trace_events(sim.trace), "displayTimeUnit": "ms",
               "otherData": {"metrics": sim.metrics.snapshot()}},
              reference, indent=None, separators=(",", ":"))
    path = write_chrome_trace(sim.trace, str(tmp_path / "chrome.json"), metrics=sim.metrics)
    with open(path) as fh:
        assert fh.read() == reference.getvalue()


def test_trace_to_json_rejects_non_canonical_tags(tmp_path):
    # Strict serialization: no default=str fallback smuggling reprs
    # (and their memory addresses) into replay artifacts.
    sim = Simulation()
    sim.trace.end(sim.trace.begin("io", handle=object()))
    with pytest.raises(TypeError):
        sim.trace.to_json(str(tmp_path / "trace.json"))


def test_cli_report(capsys, tmp_path):
    chrome = tmp_path / "trace.json"
    assert main([
        "report", "--servers", "2", "--clients", "2", "--iterations", "1",
        "--chrome", str(chrome),
    ]) == 0
    out = capsys.readouterr().out
    assert "telemetry report" in out
    assert "critical path per iteration" in out
    assert "colza.iteration" in out
    data = json.loads(chrome.read_text())
    assert {"traceEvents", "displayTimeUnit", "otherData"} <= set(data)


def test_cli_report_json(capsys):
    assert main(["report", "--servers", "2", "--clients", "2",
                 "--iterations", "1", "--controller", "mpi", "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["iterations"][0]["iteration"] == 1
    assert report["metrics"]["core.executes"]["value"] >= 1
