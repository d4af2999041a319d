"""§II-E: activate overhead — unchanged vs changed membership, joins and leaves."""

from repro.bench import Table
from repro.bench.experiments.sec2e_activate import run


def test_sec2e_activate_overhead(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(
        "§II-E — activate duration (s); paper: no overhead when group "
        "unchanged, 'order of a second' when it changed",
        ["scenario", "activate (s)"],
    )
    for key in ("unchanged", "changed_settled", "changed_racing",
                "shrunk_settled", "shrunk_racing"):
        table.add(key, f"{results[key]:.4f}")
    table.show()
    table.save("sec2e_activate_overhead")

    # Unchanged group: effectively free.
    assert results["unchanged"] < 0.01
    # Changed group: overhead appears, up to ~1 s while gossip races.
    assert results["changed_settled"] >= results["unchanged"]
    assert 0.02 < results["changed_racing"] < 2.5
    assert results["changed_racing"] > results["unchanged"]
    # The same holds for a graceful leave: the survivors' NO decides the
    # first round, nobody waits out a deadline on the server that left.
    assert results["shrunk_settled"] < 0.5
    assert results["shrunk_settled_rounds"] <= 2
    assert results["shrunk_racing"] < 2.5
