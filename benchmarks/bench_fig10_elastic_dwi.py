"""Fig. 10: elastic (8 -> 72 procs) vs static DWI rendering."""

import hashlib
import json

import numpy as np

from repro.bench import Table
from repro.bench.experiments.fig10_elastic_dwi import GROW_FROM_ITERATION, run


def test_fig10_elastic_dwi(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)

    elastic = results["elastic_8_to_72"]
    static8 = results["static_8"]
    static72 = results["static_72"]

    table = Table(
        "Fig. 10 — DWI execute per iteration (s); paper: elastic bounded "
        "(~10 s; ~20 s incl. join spikes) while static-8 keeps growing",
        ["iteration", "elastic 8->72", "static 8", "static 72"],
    )
    for it in range(1, 31):
        table.add(it, f"{elastic[it-1]:.1f}", f"{static8[it-1]:.1f}", f"{static72[it-1]:.1f}")
    table.show()
    table.save("fig10_elastic_dwi")

    # static-8 keeps increasing and ends far above the elastic run.
    assert static8[29] > 55.0
    assert static8[29] > 3.0 * elastic[29]
    # The elastic run stays bounded after growth starts: ~10 s steady,
    # ~20 s on iterations that pay the join-init spike.
    post = elastic[GROW_FROM_ITERATION - 1 :]
    assert max(post) < 22.0
    steady = [v for i, v in enumerate(post) if (i % 2) == 1]  # non-join iterations
    assert max(steady) < 12.0
    # static-72 is flat-ish and cheap but wastes 72 procs from day one;
    # elastic converges towards it at the end.
    assert elastic[29] < 1.5 * static72[29] + 5.0
    # Before growth begins, elastic == static-8 behaviour (growing).
    pre = elastic[1 : GROW_FROM_ITERATION - 1]
    assert all(a <= b * 1.05 for a, b in zip(pre, pre[1:]))
    # One pipeline per process: the per-process library load (PR 22)
    # must leave the series exactly as recorded before it.
    assert hashlib.sha256(json.dumps(elastic).encode()).hexdigest() == (
        "4e2ec7a0e583ebbdb0ddeeda899c1447e992ba806d5d1d3c40570f61fedd8bff"
    )
