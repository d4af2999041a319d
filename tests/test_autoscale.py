"""Unit + acceptance tests for the elasticity controller (DESIGN §16).

Four layers:

- :class:`ThresholdBand` edge cases — the reactive policy's pure
  decision function (clamps, determinism) and its cooldown on the
  controller's tick clock;
- the ``ControllerSafety`` audit catching a policy that ignores the
  cooldown clock or the server bounds — the audit reads the event log,
  not the policy;
- :class:`SloAutoscaler` failure modes in isolation — join hangs,
  telemetry blackouts, internal errors, shrink/death races, per-tenant
  budget windows — each must end in a counted, evented, *non-raising*
  state;
- the acceptance comparison: under a pinned bursty load trace the
  predictive controller must beat both static sizing and the reactive
  band on SLO misses, deterministically; and the band-in-controller
  takes the decisions the deleted standalone band scaler took (the
  oracle).
"""

import dataclasses

import pytest

from repro.bench.loadtraces import adversarial, bursty, diurnal, trace
from repro.chaos.scenarios import (
    AUTOSCALE_BPS,
    AUTOSCALE_SLO,
    STATS,
    _controller_workload as _iterate,
    build_stack,
)
from repro.core.autoscale import SloAutoscaler, SloConfig, TenantSlo, ThresholdBand
from repro.core.tenancy import DEFAULT_TENANT
from repro.na import VirtualPayload
from repro.testing import drive, run_until

DEADLINE = 1.2


# ---------------------------------------------------------------------------
# load traces
class TestLoadTraces:
    def test_traces_are_pure_functions_of_seed(self):
        for name in ("bursty", "diurnal", "adversarial"):
            a = trace(name, 32, seed=5)
            b = trace(name, 32, seed=5)
            c = trace(name, 32, seed=6)
            assert a == b
            assert a != c
            assert len(a) == 32

    def test_bursty_ramps_before_holding(self):
        loads = bursty(40, seed=0, base=1.0, burst=6.0, ramp=2, hold=3)
        assert max(loads) == 6.0 and min(loads) == 1.0
        # Every burst is preceded by the intermediate ramp value.
        for i, load in enumerate(loads):
            if load == 6.0 and i >= 2 and loads[i - 1] != 6.0:
                assert loads[i - 1] == pytest.approx(3.5)

    def test_diurnal_spans_base_to_peak(self):
        loads = diurnal(24, seed=1, base=1.0, peak=4.0, period=12, jitter=0.0)
        assert min(loads) == pytest.approx(1.0)
        assert max(loads) == pytest.approx(4.0)

    def test_adversarial_spikes_vanish_immediately(self):
        loads = adversarial(28, seed=2, base=1.0, spike=8.0, step=3.0)
        for i, load in enumerate(loads[:-1]):
            if load == 8.0:
                assert loads[i + 1] != 8.0


# ---------------------------------------------------------------------------
# teardown shared by the policy and failure-mode cases
def _teardown_ok(ctx):
    run_until(ctx.sim, ctx.deployment.converged, max_time=60)  # a join just landed
    ctx.monitor.final_check()
    ctx.monitor.detach()
    assert ctx.monitor.violations == [], "\n".join(ctx.monitor.violations)


# ---------------------------------------------------------------------------
# the reactive baseline's decision function
class TestThresholdBand:
    def test_hold_consumes_cooldown(self):
        """The cooldown is the controller's tick clock, not the
        policy's: ``cooldown_iterations=3`` is two holds between a
        resize terminal and the next ``resize_start``."""
        ctx = build_stack(seed=8, n_servers=2,
                          config={"bytes_per_second": AUTOSCALE_BPS})
        # Every observation is above the band, so only cooldown holds.
        controller = ctx.autoscaler(policy=ThresholdBand(high=1e-3, low=0.0),
                                 cooldown_iterations=3, max_servers=6)
        drive(ctx.sim, _iterate(ctx, controller, [1.0] * 4), max_time=600)
        assert [d.action for d in controller.decisions] == [
            "grow", "hold", "hold", "grow"
        ]
        assert all("cooldown" in d.reason for d in controller.decisions[1:3])
        ticks = {e.kind: [] for e in controller.events}
        for e in controller.events:
            ticks[e.kind].append(e.tick)
        assert ticks["resize_done"] == [1, 4]
        assert ticks["resize_start"] == [1, 4]  # 4 - 1 == cooldown_iterations
        _teardown_ok(ctx)

    def test_grow_clamped_at_max_servers(self):
        band = ThresholdBand(high=10.0, low=2.0, grow_step=8)
        slo = SloConfig(max_servers=4)
        assert band(15.0, 4, 0, slo).action == "hold"
        decision = band(15.0, 3, 0, slo)
        assert decision.action == "grow"
        assert decision.amount == 1  # 8-step clamped to the 1 slot left
        assert decision.target == 4

    def test_shrink_refused_at_min_servers(self):
        band = ThresholdBand(high=10.0, low=2.0)
        slo = SloConfig(min_servers=2)
        assert band(0.5, 2, 0, slo).action == "hold"
        assert band(0.5, 3, 0, slo).action == "shrink"

    def test_decisions_deterministic_under_pinned_trace(self):
        loads = bursty(20, seed=9, base=0.5, burst=12.0)
        slo = SloConfig()

        def run():
            band = ThresholdBand(high=10.0, low=1.0)
            n, cooldown = 2, 0
            actions = []
            for load in loads:
                cooldown = max(0, cooldown - 1)  # the controller's clock
                decision = band(load, n, cooldown, slo)
                actions.append(decision.action)
                if decision.action != "hold":
                    n = decision.target
                    cooldown = slo.cooldown_iterations
            return actions

        first, second = run(), run()
        assert first == second
        assert "grow" in first


# ---------------------------------------------------------------------------
# the audit is independent of the policy
GREEDY = ThresholdBand(high=1e-3, low=0.0)  # every observation says grow


def _ignores_cooldown(execute, servers, cooldown, slo):
    return GREEDY(execute, servers, 0, slo)


def _ignores_bounds(execute, servers, cooldown, slo):
    return GREEDY(execute, servers, cooldown,
                  dataclasses.replace(slo, max_servers=99))


class TestControllerSafetyAudit:
    def _run(self, policy, max_servers=3):
        ctx = build_stack(seed=9, n_servers=2,
                          config={"bytes_per_second": AUTOSCALE_BPS})
        controller = ctx.autoscaler(policy=policy, cooldown_iterations=3,
                                 max_servers=max_servers)
        drive(ctx.sim, _iterate(ctx, controller, [1.0] * 4), max_time=600)
        return ctx

    @pytest.mark.parametrize("rogue, max_servers, complaint", [
        (_ignores_cooldown, 4, "fresh steps after"),
        (_ignores_bounds, 3, "outside [1, 3]"),
    ])
    def test_rogue_band_is_caught(self, rogue, max_servers, complaint):
        ctx = self._run(rogue, max_servers)
        ctx.monitor.final_check()
        ctx.monitor.detach()
        flagged = [v for v in ctx.monitor.violations if "[controller-safety]" in v]
        assert any(complaint in v for v in flagged), ctx.monitor.violations

    def test_honest_band_passes_the_same_audit(self):
        ctx = self._run(GREEDY)
        assert len(ctx.deployment.live_daemons()) == 3
        _teardown_ok(ctx)


# ---------------------------------------------------------------------------
# SloAutoscaler failure modes
class TestSloAutoscalerFailureModes:
    def test_join_hang_is_abandoned_and_counted(self):
        """add_server that never completes: the deadline must fire, the
        node gets quarantined, and the step returns without raising."""
        ctx = build_stack(seed=3, n_servers=2,
                          config={"bytes_per_second": AUTOSCALE_BPS})
        controller = ctx.autoscaler(join_deadline=2.0, max_resize_attempts=2)

        def never_joins(node_index, **kwargs):
            while True:
                yield ctx.sim.timeout(1.0)

        ctx.deployment.add_server = never_joins
        loads = [1.0, 1.0, 4.0, 6.0, 6.0, 6.0]
        drive(ctx.sim, _iterate(ctx, controller, loads), max_time=600)
        assert controller.resize_failures >= 2  # both attempts timed out
        assert controller.quarantined
        kinds = [e.kind for e in controller.events]
        assert "resize_failed" in kinds
        assert len(ctx.deployment.live_daemons()) == 2
        _teardown_ok(ctx)

    def test_degraded_mode_on_stale_telemetry(self):
        """No fresh execute spans: after ``stale_after_steps`` the
        controller degrades (gauge up, holds only) and recovers on the
        next real observation."""
        ctx = build_stack(seed=4, n_servers=2,
                          config={"bytes_per_second": AUTOSCALE_BPS})
        controller = ctx.autoscaler(stale_after_steps=2, min_servers=2)

        def starve_then_feed():
            yield from _iterate(ctx, controller, [1.0])
            for _ in range(3):  # control steps with no workload at all
                yield ctx.sim.timeout(0.5)
                yield from controller.step_from_trace()
            assert controller.degraded
            gauge = ctx.sim.metrics.get("autoscale.controller_degraded")
            assert gauge.value == 1
            yield from _iterate(ctx, controller, [1.0], first=2)
            assert not controller.degraded
            assert gauge.value == 0

        drive(ctx.sim, starve_then_feed(), max_time=600)
        kinds = [e.kind for e in controller.events]
        assert "degraded" in kinds and "recovered" in kinds
        assert all(
            d.action == "hold" for d in controller.decisions if d.degraded
        )
        _teardown_ok(ctx)

    def test_internal_error_becomes_degraded_hold(self):
        """A bug in the planner must surface as an ``error`` event and a
        degraded hold — never an exception into the host app."""
        ctx = build_stack(seed=5, n_servers=2,
                          config={"bytes_per_second": AUTOSCALE_BPS})
        controller = ctx.autoscaler()
        controller._plan = lambda n: (_ for _ in ()).throw(RuntimeError("boom"))
        drive(ctx.sim, _iterate(ctx, controller, [1.0, 1.0]), max_time=600)
        kinds = [e.kind for e in controller.events]
        assert "error" in kinds
        assert controller.degraded
        assert controller.decisions[-1].action == "hold"
        ctx.monitor.detach()  # degraded-by-error: safety audit not expected clean

    def test_shrink_reconciles_with_concurrent_death(self):
        """A member dying while a shrink is pending must count toward
        the target instead of being double-removed."""
        ctx = build_stack(seed=6, n_servers=3,
                          config={"bytes_per_second": AUTOSCALE_BPS})
        controller = ctx.autoscaler(min_servers=1)
        live = sorted(ctx.deployment.live_daemons(), key=lambda d: str(d.address))
        victim = live[-1]  # the daemon the shrink will pick

        def race():
            task = ctx.sim.spawn(controller._actuate_shrink(1), name="shrink")
            yield ctx.sim.timeout(0.05)  # leave RPC now in flight
            ctx.monitor.note_failure(victim.name)
            victim.crash()
            return (yield task.join())

        done = drive(ctx.sim, race(), max_time=120)
        # The death counts toward the target: exactly one member gone,
        # no double removal below it.
        assert done is True
        assert len(ctx.deployment.live_daemons()) == 2

    def test_budget_window_slides(self):
        ctx = build_stack(seed=7, n_servers=2,
                          config={"bytes_per_second": AUTOSCALE_BPS})
        tenants = {DEFAULT_TENANT: TenantSlo("pipe", resize_budget=1,
                                             budget_window=4)}
        controller = SloAutoscaler(
            ctx.deployment, ctx.margo, ctx.library, ctx.config,
            slo=SloConfig(**AUTOSCALE_SLO), tenants=tenants,
        )
        state = controller._states[DEFAULT_TENANT]
        assert controller._budget_left(DEFAULT_TENANT) == 1
        controller._charge([DEFAULT_TENANT])
        assert controller._budget_left(DEFAULT_TENANT) == 0
        state.obs += 4  # the charge ages out of the window
        assert controller._budget_left(DEFAULT_TENANT) == 1
        ctx.monitor.detach()


# ---------------------------------------------------------------------------
# acceptance: predictive beats static and reactive under a pinned trace
LOADS = bursty(14, seed=3, base=1.0, burst=6.0, ramp=2, hold=3,
               min_gap=2, max_gap=4)


def _experiment(n_servers: int, seed: int = 11):
    from repro.bench.harness import ColzaExperiment
    from repro.core.pipelines import IsoSurfaceScript

    return ColzaExperiment(
        n_servers=n_servers, n_clients=1,
        script=IsoSurfaceScript(field="d", isovalues=[0.5]),
        library=STATS, seed=seed, pipeline_name="pipe",
        extra_config={"bytes_per_second": AUTOSCALE_BPS},
    ).setup()


def _blocks(load: float):
    payload = VirtualPayload((max(1, int((1 << 14) * load)),), "float64")
    return [[(b, payload) for b in range(8)]]


def _misses(sim, deadline: float = DEADLINE) -> int:
    return sum(
        1
        for s in sim.trace.spans
        if s.name == "colza.execute" and s.end is not None
        and s.duration > deadline
    )


def _run(n_servers: int = 2, slo=None, policy=None):
    exp = _experiment(n_servers)
    controller = exp.autoscaler(slo, 8, policy=policy) if slo else None
    exp.run_controlled((_blocks(load) for load in LOADS), 0.5, controller)
    return _misses(exp.sim), controller, exp


def _run_static(n_servers: int) -> int:
    return _run(n_servers)[0]


def _run_reactive() -> int:
    # The band sits out one observation after a resize: cooldown 2 on
    # the controller's tick clock.
    slo = SloConfig(**{**AUTOSCALE_SLO, "cooldown_iterations": 2})
    return _run(slo=slo, policy=ThresholdBand(high=DEADLINE, low=0.3))[0]


def _run_slo():
    return _run(slo=SloConfig(**AUTOSCALE_SLO))


class TestAcceptance:
    def test_controller_beats_static_and_reactive_on_misses(self):
        static_misses = _run_static(2)
        reactive_misses = _run_reactive()
        slo_misses, controller, exp = _run_slo()
        assert static_misses >= 2, "trace too easy: static sizing never misses"
        assert slo_misses < static_misses
        assert slo_misses < reactive_misses
        assert controller.slo_misses() == slo_misses
        assert 1 <= len(exp.deployment.live_daemons()) <= 4

    def test_controller_run_is_deterministic(self):
        first_misses, first, exp1 = _run_slo()
        second_misses, second, exp2 = _run_slo()
        assert first_misses == second_misses
        assert [d.action for d in first.decisions] == [
            d.action for d in second.decisions
        ]
        assert exp1.sim.trace.digest() == exp2.sim.trace.digest()


# ---------------------------------------------------------------------------
# equivalence oracle: the band moved house without changing behaviour
class TestReactiveOracle:
    #: Recorded from the standalone reactive scaler at the commit that
    #: deleted it (s/h/g = shrink/hold/grow per control step).
    PARENT = {
        "bursty": ("shhghghghshhghhh", 6),
        "adversarial": ("shghhhshhghhshhh", 2),
        "diurnal": ("shhghhhhhhhhshhg", 2),
    }

    def test_band_policy_takes_the_deleted_autoscalers_decisions(self):
        from repro.bench.experiments import autoscale_slo

        results = autoscale_slo.run(
            apps=("grayscott",), traces=tuple(self.PARENT), iterations=16,
            n_clients=4, seed=23,
        )["grayscott"]
        got = {
            shape: (r["reactive"]["decisions"], r["reactive"]["slo_misses"])
            for shape, r in results.items()
        }
        assert got == self.PARENT
