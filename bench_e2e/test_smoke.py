"""Smoke test of the benchmark itself.

Run with ``python -m pytest bench_e2e -q`` from the repo root (it is
outside tier-1's ``testpaths``; about half a minute). It runs every
workload once in ``--quick`` mode and checks that the command prints
exactly the metrics this directory and ``BENCHMARK.json`` name.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

from bench_e2e import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
# `python -m pytest bench_e2e` sets no PYTHONPATH; the workloads import repro.
sys.path.insert(0, os.path.join(ROOT, "src"))


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-m", "bench_e2e", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench_e2e") / "quick.json"
    proc = _run("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _finite_or_null(value) -> bool:
    return value is None or (isinstance(value, (int, float)) and math.isfinite(value))


def test_workload_names_are_the_final_ones():
    from bench_e2e.workloads import WORKLOADS

    assert tuple(WORKLOADS) == spec.WORKLOAD_NAMES


def test_every_named_metric_is_printed(quick_result):
    assert set(quick_result["workloads"]) == set(spec.WORKLOAD_NAMES)
    for workload, summary in quick_result["workloads"].items():
        assert list(summary["e2e"]) == [m.name for m in spec.E2E], workload
        assert list(summary["per_layer"]) == [m.name for m in spec.PER_LAYER], workload
        for name, row in summary["e2e"].items():
            assert NAME.match(name)
            assert _finite_or_null(row["value"]), (workload, name, row)
        for name, value in summary["per_layer"].items():
            assert NAME.match(name)
            assert _finite_or_null(value), (workload, name, value)
        # Every metric that exists on all workloads has a value.
        for metric in spec.E2E_CONTRACT:
            assert summary["e2e"][metric.name]["value"] is not None, (workload, metric.name)
        assert summary["failure_ratio"]["failed"] == 0, summary["checks"]
        assert not summary["warnings"], summary["warnings"]


def test_elastic_only_metrics_exist_only_there(quick_result):
    for workload, summary in quick_result["workloads"].items():
        for metric in spec.E2E:
            if metric.only is not None:
                has_value = summary["e2e"][metric.name]["value"] is not None
                assert has_value == (workload in metric.only), (workload, metric.name)


def test_sampler_accounts_for_the_traced_wall_time(quick_result):
    for workload, summary in quick_result["workloads"].items():
        sampled = sum(s for layers in summary["layers_by_phase"].values() for s in layers.values())
        assert sampled == pytest.approx(summary["traced_wall_s"], rel=0.05), workload


def test_benchmark_json_matches_spec(benchmark_json):
    assert benchmark_json["paths"] == ["bench_e2e"]
    assert [w["name"] for w in benchmark_json["workloads"]] == list(spec.WORKLOAD_NAMES)
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in benchmark_json["end_to_end"]]
    assert e2e == [(m.name, m.unit, m.better, m.bound) for m in spec.E2E_CONTRACT]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in benchmark_json["per_layer"]]
    assert per_layer == [(m.name, m.unit, m.better) for m in spec.PER_LAYER]
    from bench_e2e.workloads import WORKLOADS

    for entry in benchmark_json["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace,listed", [(0, "end_to_end"), (1, "per_layer")])
def test_contract_command_prints_what_benchmark_json_lists(benchmark_json, trace, listed):
    proc = _run("--workload", "dwi_volume_real", "--seed", "2", "--seconds", "1",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in benchmark_json[listed]]
    for name, entry in last["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    """A directory holding only the benchmark: nothing to measure."""
    import shutil

    shutil.copytree(os.path.join(ROOT, "bench_e2e"), tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "gs_iso_real", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
