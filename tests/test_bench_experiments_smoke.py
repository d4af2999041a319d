"""Smoke tests for the benchmark experiment drivers at tiny scales.

The full paper-scale runs live in benchmarks/; these exercise the same
code paths quickly so the regular test suite catches regressions in
the experiment harnesses themselves.
"""

import hashlib
import json

import pytest

from repro.bench.experiments import (
    ablation_autoscale,
    ablation_compositing,
    ablation_reduce,
    ablation_ssg,
    autoscale_slo,
    fig1a_dwi_dataset,
    fig4_resize,
    fig7_dwi,
    fig9_elastic,
    sec2e_activate,
    table1_p2p,
    table2_reduce,
)


def test_table1_smoke():
    results = table1_p2p.run(ops=10)
    assert set(results) == {"craympich", "openmpi", "mona", "na"}
    assert results["craympich"][8] == pytest.approx(1.163e-6, rel=0.01)
    assert len(results["na"]) == 3


def test_fig1a_smoke():
    results = fig1a_dwi_dataset.run(check_real_meshes=False)
    assert len(results["cells_millions"]) == 30
    assert results["cells_millions"][0] < results["cells_millions"][-1]


def test_fig4_smoke():
    results = fig4_resize.run(max_n=2, samples_per_n=1)
    assert len(results["elastic"]) == 2
    assert all(t > 0 for t in results["elastic"] + results["static"])
    # Elastic beats static even in a two-sample smoke run.
    assert sum(results["elastic"]) < sum(results["static"])


def test_fig7_smoke():
    results = fig7_dwi.run(scales=(8,), iterations=3, modes=("mona",))
    series = results["mona"][8]
    assert len(series) == 3
    assert series[0] > series[1]  # init spike on the first iteration
    with pytest.raises(ValueError):
        fig7_dwi.run(scales=(8,), iterations=31)


def test_sec2e_smoke():
    results = sec2e_activate.run(n_servers=2)
    assert results["unchanged"] < 0.01
    assert results["changed_racing"] > results["unchanged"]


def test_sec2e_holds_in_both_directions():
    """§II-E for a *leave*: "no overhead if the group hasn't changed …
    in the order of a second when the group did change"."""
    results = sec2e_activate.run()
    # 10.0 s (two deadlines on the server that said goodbye) before the
    # survivors' NO decided the round.
    assert results["shrunk_settled"] < 0.5
    assert results["shrunk_settled_rounds"] <= 2
    assert results["shrunk_racing"] < 2.5
    # The join direction is what it was.
    assert results["unchanged"] < 0.01
    assert 0.02 < results["changed_racing"] < 2.5


def test_fig9_single_tenant_elastic_run_is_bit_identical():
    """One pipeline per process: sharing the library load between a
    process's pipelines must not move a single-tenant figure. The
    digest was recorded before the load became per-process, and
    re-pinned when frames came to be priced as IceT's sparse image
    (shorter composites: every ``execute`` moved, nothing else)."""
    records = fig9_elastic.run()
    assert records[0]["execute"] - records[1]["execute"] == pytest.approx(8.0)  # init, once
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "e53082c37bfa29bfd5927194b8094ff86b851cf5b729e99666189b53d816a998"


def test_ablation_reduce_smoke():
    # Use the module's internal measure at a small scale.
    t_binary = ablation_reduce._measure("binary", 2048)
    t_binomial = ablation_reduce._measure("binomial", 2048)
    assert t_binomial < t_binary


def test_ablation_ssg_smoke():
    results = ablation_ssg.run(periods=(0.25,), n_servers=3, samples=1)
    r = results[0.25]
    assert r["join_time"] > 0
    assert r["messages_per_member_per_s"] > 0


def test_ablation_compositing_smoke():
    results = ablation_compositing.run(scales=(2, 4))
    assert results["bswap"][4]["bytes"] > 0
    assert results["reduce"][4]["bytes"] > results["reduce"][2]["bytes"]


def test_ablation_autoscale_smoke():
    """The three relations benchmarks/bench_ablation_autoscale.py
    asserts, at 6 of its 24 iterations (~8 s wall)."""
    iterations = 6
    results = ablation_autoscale.run(iterations=iterations)
    auto, small, large = (
        results[k] for k in ("autoscaled", "static_small", "static_large")
    )
    late = slice(iterations // 2, None)
    # By iteration 6 the band has doubled the group once (8 -> 16), so
    # late iterations run at half of static-small's plus the wider
    # composite (0.5001x); the bench's 0.5x needs the third grow, which
    # the growing dataset only triggers from iteration 20.
    assert max(auto["times"][late]) < 0.51 * max(small["times"][late])
    assert auto["server_seconds"] < 0.7 * large["server_seconds"]
    assert auto["final_servers"] > small["final_servers"]


def test_autoscale_slo_smoke():
    results = autoscale_slo.run(
        apps=("grayscott",), traces=("bursty",), iterations=12
    )
    regimes = results["grayscott"]["bursty"]
    assert set(regimes) == {"slo", "reactive", "static_small", "static_large"}
    assert regimes["static_small"]["slo_misses"] >= 1, "trace never stressed SMALL"
    assert regimes["slo"]["slo_misses"] < regimes["static_small"]["slo_misses"]
    assert regimes["slo"]["slo_misses"] <= regimes["reactive"]["slo_misses"]
    # The elastic win: near static_large's misses at far fewer
    # server-seconds than provisioning for the burst from day one.
    assert regimes["slo"]["server_seconds"] < regimes["static_large"]["server_seconds"]


def test_table2_calibration_dict_complete():
    for lib, anchors in table2_reduce.PAPER_TABLE2_US.items():
        assert set(anchors) == set(table2_reduce.SIZES)
