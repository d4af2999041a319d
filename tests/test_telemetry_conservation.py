"""Time-conservation tests for the critical-path analyzer.

The sweep line assigns every instant of an iteration span to exactly
one descendant (or to idle), so ``busy + idle == duration`` must hold
for *every* ``colza.iteration`` span — clean runs and chaos runs
alike: dropped messages, a crashed server mid-run, and link delay all
leave retry attempts, aborted spans, and unfinished descendants in the
tree, and none of that may break the accounting.
"""

import pytest

from repro.chaos.faults import CrashFault, FaultPlan, LinkFault
from repro.chaos.scenarios import CLIENT, _workload, build_stack
from repro.telemetry import CriticalPathAnalyzer
from repro.testing import drive

ANALYZER = CriticalPathAnalyzer()


def _check_all_iterations(sim, min_iterations: int):
    nodes = list(sim.trace.find("colza.iteration"))
    assert len(nodes) >= min_iterations, f"only {len(nodes)} iteration spans"
    for node in nodes:
        attribution = ANALYZER.attribute(node)
        # Raises AssertionError on a non-conserving breakdown.
        residual = attribution.check_conservation()
        assert abs(residual) <= 1e-9 + 1e-9 * attribution.duration
        assert attribution.idle >= 0.0
        assert all(v >= 0.0 for v in attribution.layers.values())
        # by_name is a refinement of layers: identical totals.
        assert sum(attribution.by_name.values()) == pytest.approx(
            attribution.busy, abs=1e-12
        )
        breakdown = ANALYZER.iteration_breakdown(node)
        assert sum(breakdown["layers"].values()) + breakdown["idle"] == pytest.approx(
            breakdown["duration"], rel=1e-9, abs=1e-9
        )
    return nodes


# ---------------------------------------------------------------------------
def test_conservation_clean_run():
    ctx = build_stack(seed=11)
    drive(ctx.sim, _workload(ctx, iterations=3), max_time=600)
    nodes = _check_all_iterations(ctx.sim, min_iterations=3)
    # A clean run completes every iteration on the first attempt.
    assert all(n.tags.get("outcome") == "ok" for n in nodes)


def test_conservation_under_message_drops():
    """Client-link drops force RPC timeouts and resilient-iteration
    retries: extra attempt spans, error-tagged forwards — all conserved."""
    ctx = build_stack(seed=3)
    t = ctx.t0
    ctx.arm(FaultPlan((
        LinkFault(t, t + 20, src=CLIENT, drop_p=0.06),
        LinkFault(t, t + 20, dst=CLIENT, drop_p=0.06),
    )))
    drive(ctx.sim, _workload(ctx, iterations=4, attempts=8, gap=0.8), max_time=600)
    _check_all_iterations(ctx.sim, min_iterations=4)


def test_conservation_under_crash():
    """A server crash mid-window leaves aborted iterations whose
    subtrees contain unfinished spans; those count as idle time in the
    parent, never as negative or double-counted busy time."""
    ctx = build_stack(seed=5)
    ctx.arm(FaultPlan((CrashFault(at=ctx.t0 + 0.5, server=ctx.servers[-1]),)))
    drive(ctx.sim, _workload(ctx, iterations=3, attempts=8, gap=0.4), max_time=600)
    _check_all_iterations(ctx.sim, min_iterations=3)


def test_conservation_under_delay_jitter():
    ctx = build_stack(seed=8)
    t = ctx.t0
    ctx.arm(FaultPlan((LinkFault(t, t + 8, delay=0.04),)))
    drive(ctx.sim, _workload(ctx, iterations=3, gap=0.5), max_time=600)
    _check_all_iterations(ctx.sim, min_iterations=3)


def test_unfinished_parent_rejected():
    from repro.sim import Simulation

    sim = Simulation()
    span = sim.trace.begin("colza.iteration", iteration=1)
    with pytest.raises(ValueError):
        ANALYZER.attribute(span)
