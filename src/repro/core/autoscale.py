"""The elasticity controller (the paper's future work (2), DESIGN §16).

The paper lists elasticity triggers (§IV-B) and leaves "automatic
resizing as a response to performance constraints" to future work.
:class:`SloAutoscaler` is that controller: one closed loop that owns
observation, the cooldown clock, actuation, failure handling and the
event log. Only the *decide* step is pluggable (``policy=``): the
default predictive planner (Predict/Decide below), or
:class:`ThresholdBand` — the reactive baseline the benches compare it
against.

- **Observe**: :meth:`SloAutoscaler.step_from_trace` reads finished
  ``colza.execute`` spans per tenant from the tracer — the same span
  stream the chaos invariants, the Chrome export and the critical-path
  analyzer consume — and converts each into an invariant *work*
  estimate ``work = execute_seconds x n_servers`` (the stats and render
  backends both divide their per-iteration cost across the frozen
  view, so work is what survives a resize).
- **Predict**: the next iteration's work is the max of the latest
  sample and an EWMA, plus the recent positive trend — a burst that is
  still ramping is extrapolated one step forward, so the controller
  grows *before* the miss rather than one iteration after it.
- **Decide**: the target size is ``ceil(W / (deadline * headroom))``,
  clamped to ``[min_servers, max_servers]``. Growth that is not needed
  to avoid a predicted deadline miss, and every shrink, must *amortize*
  the measured resize cost (the join + pipeline deploy + first
  re-activate spike, seeded from the sec2e bench and updated with every
  actuation this controller performs) over ``amortize_iterations`` —
  that, plus a cooldown and a shrink patience streak, is what keeps a
  flapping straggler from making the group breathe.
- **Actuate, surviving its own failures** (the robustness core):

  =========================  ============================================
  failure mode               response
  =========================  ============================================
  join target crashes        abandon the attempt, quarantine the node,
  mid-join                   retry on a different node with capped
                             jittered backoff; ``resize_failures``++
  join hangs past deadline   same: the attempt is abandoned at
                             ``join_deadline`` and the half-started
                             daemon is crashed (a zombie group-file
                             entry behaves like a real crash)
  shrink races a death       the victim is re-chosen from the *live*
                             SSG view immediately before each ``leave``
                             RPC; a concurrent death that already took
                             the group to target reconciles to a no-op
  telemetry missing/stale    degraded hold: ``controller_degraded``
                             gauge goes to 1 and every decision is a
                             hold — never an exception
  tenant burst               per-tenant resize budgets: a tenant that
                             spent its window's budget stops demanding
                             growth; other tenants' budgets are intact
  =========================  ============================================

Every observation, decision, actuation and failure lands in
:attr:`SloAutoscaler.events` — the replayable record that the chaos
fleet's ``ControllerSafety`` invariant audits (bounds, single resize in
flight, cooldown respected, degraded-instead-of-raise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Set

from repro.core.admin import ColzaAdmin
from repro.core.backoff import backoff_delay
from repro.core.tenancy import DEFAULT_TENANT, qualify
from repro.sim.kernel import Deadline, Interrupt

__all__ = [
    "ControllerEvent",
    "SloAutoscaler",
    "SloConfig",
    "SloDecision",
    "TenantSlo",
    "ThresholdBand",
]


@dataclass(frozen=True)
class SloConfig:
    """Controller tuning. Everything is in simulated seconds/iterations."""

    #: Per-iteration execute deadline (the SLO) for tenants that don't
    #: set their own.
    deadline: float = 10.0
    min_servers: int = 1
    max_servers: int = 128
    #: Plan to land at ``deadline * headroom`` so ordinary jitter around
    #: the prediction doesn't immediately re-trigger a resize.
    headroom: float = 0.85
    #: Control steps with fresh telemetry (the event log's ``tick``
    #: clock, the one ``ControllerSafety`` replays) between a resize
    #: terminal and the next ``resize_start`` — N-1 holds, for either
    #: policy: a band that sits out N observations sets N+1 here.
    cooldown_iterations: int = 2
    #: Consecutive steps the group must look oversized before a shrink.
    shrink_patience: int = 3
    #: A resize must pay for itself within this many iterations.
    amortize_iterations: int = 8
    #: Fresh-telemetry-free control steps before degraded mode.
    stale_after_steps: int = 3
    #: Abandon a join (srun + SSG join + pipeline deploy) after this.
    join_deadline: float = 20.0
    #: Abandon a leave (RPC + state migration + departure) after this.
    leave_deadline: float = 20.0
    #: Actuation attempts per resize before giving up until next step.
    max_resize_attempts: int = 3
    #: Capped jittered backoff between actuation attempts.
    backoff_base: float = 0.4
    backoff_cap: float = 3.0
    #: Seed for the measured resize cost EWMA — the join-init +
    #: re-activate spike, ~8 s on the simulated machine (sec2e bench).
    initial_resize_cost: float = 8.0
    resize_cost_alpha: float = 0.5
    #: EWMA weight for the per-tenant work estimate.
    work_alpha: float = 0.4


@dataclass(frozen=True)
class TenantSlo:
    """One tenant's SLO contract on the shared fabric (DESIGN §13)."""

    #: Base pipeline name (unqualified; the wire name is derived).
    pipeline: str = "pipe"
    #: Per-iteration execute deadline; ``None`` uses the global one.
    deadline: Optional[float] = None
    #: Grow actuations chargeable to this tenant per budget window —
    #: the fuse that keeps one tenant's burst from spending the whole
    #: fabric's resize capacity.
    resize_budget: int = 4
    #: Window length, in this tenant's own observations.
    budget_window: int = 16


@dataclass(frozen=True)
class SloDecision:
    action: str  # "grow" | "shrink" | "hold"
    reason: str
    amount: int = 0
    target: int = 0
    degraded: bool = False


@dataclass(frozen=True)
class ThresholdBand:
    """Reactive decide-step policy: keep execute inside ``[low, high]``.

    A pure function of what the controller observed: the worst latest
    execute time across tenants, the live server count, the fresh steps
    left on the controller's cooldown clock and its :class:`SloConfig`
    (the server bounds). It must hold while ``cooldown > 0`` (a fresh
    server's first execute carries the VTK/Python init spike) and keep
    its target inside the bounds; ``ControllerSafety`` audits both from
    the event log, whatever the policy.
    """

    high: float
    low: float
    grow_step: int = 1

    def __call__(
        self, execute: float, servers: int, cooldown: int, slo: SloConfig
    ) -> SloDecision:
        if cooldown > 0:
            return SloDecision("hold", f"cooldown ({cooldown} left)")
        if execute > self.high and servers < slo.max_servers:
            amount = min(self.grow_step, slo.max_servers - servers)
            return SloDecision(
                "grow", f"execute {execute:.1f}s > {self.high}s",
                amount=amount, target=servers + amount,
            )
        if execute < self.low and servers > slo.min_servers:
            return SloDecision(
                "shrink", f"execute {execute:.1f}s < {self.low}s",
                amount=1, target=servers - 1,
            )
        return SloDecision("hold", "within target band", target=servers)


@dataclass(frozen=True)
class ControllerEvent:
    """One entry of the controller's replayable event log."""

    t: float
    kind: str  # decision|resize_start|resize_done|resize_failed|degraded|recovered|budget_exhausted|error
    detail: str = ""
    servers: int = 0
    target: int = 0
    #: Control steps with fresh telemetry seen so far (the cooldown
    #: clock the ControllerSafety invariant replays).
    tick: int = 0


@dataclass
class _TenantState:
    works: List[float] = field(default_factory=list)
    #: Execute seconds of the latest observation (the band's input).
    latest: float = 0.0
    times: List[float] = field(default_factory=list)
    span_cursor: int = 0
    obs: int = 0
    misses: int = 0
    #: Observation indices at which a grow was charged to this tenant.
    charges: List[int] = field(default_factory=list)


class SloAutoscaler:
    """Failure-surviving elasticity controller; ``policy`` selects the
    decide step (``None``: the predictive planner, :meth:`_plan`).

    Drives the same actuation mechanisms the paper describes (srun +
    SSG join to grow, admin ``leave`` to shrink) against a
    :class:`~repro.core.daemon.Deployment`, observing the tracer.
    ``step_from_trace`` is called once per application iteration (or on
    any cadence); it never raises — internal bugs become ``error``
    events, missing telemetry becomes degraded holds.
    """

    HISTORY = 8

    def __init__(
        self,
        deployment,
        admin_margo,
        library: str,
        config: Optional[dict] = None,
        *,
        pipeline: str = "pipe",
        slo: Optional[SloConfig] = None,
        tenants: Optional[Dict[str, TenantSlo]] = None,
        first_node: int = 8,
        policy: Optional[Callable[[float, int, int, SloConfig], SloDecision]] = None,
    ):
        self.sim = deployment.sim
        self.deployment = deployment
        self.admin_margo = admin_margo
        self.library = library
        self.config = dict(config or {})
        self.slo = slo or SloConfig()
        self.policy = policy
        self.tenants: Dict[str, TenantSlo] = dict(
            tenants if tenants is not None else {DEFAULT_TENANT: TenantSlo(pipeline)}
        )
        self._states: Dict[str, _TenantState] = {
            t: _TenantState() for t in self.tenants
        }
        self._node_cursor = first_node
        #: Nodes a failed join quarantined — never retried.
        self.quarantined: Set[int] = set()
        self.events: List[ControllerEvent] = []
        self.decisions: List[SloDecision] = []
        self.resizes = 0
        self.resize_failures = 0
        self.degraded = False
        self.resize_cost = self.slo.initial_resize_cost
        self._stale_steps = 0
        self._cooldown = 0
        self._shrink_streak = 0
        self._resize_in_flight = False
        self._tick = 0  # control steps that saw fresh telemetry
        self._scope = self.sim.metrics.scope("autoscale")
        self._scope.gauge("controller_degraded").set(0)

    # ------------------------------------------------------------------
    # bookkeeping
    def _wire(self, tenant: str) -> str:
        return qualify(tenant, self.tenants[tenant].pipeline)

    def _deadline(self, tenant: str) -> float:
        own = self.tenants[tenant].deadline
        return self.slo.deadline if own is None else own

    def _event(self, kind: str, detail: str = "", target: int = 0) -> None:
        self.events.append(
            ControllerEvent(
                t=self.sim.now,
                kind=kind,
                detail=detail,
                servers=len(self.deployment.live_daemons()),
                target=target,
                tick=self._tick,
            )
        )

    def slo_misses(self, tenant: str = DEFAULT_TENANT) -> int:
        return self._states[tenant].misses

    def charged_resizes(self, tenant: str = DEFAULT_TENANT) -> int:
        return len(self._states[tenant].charges)

    # ------------------------------------------------------------------
    # observe
    def _ingest(self) -> int:
        """Scan the tracer for newly finished execute spans; returns the
        number of fresh observations across all tenants.

        The cursor advances past everything scanned: the controller is
        stepped between iterations, so a matching span still in flight
        at step time is not expected (and would only cost one sample).
        """
        trace = self.sim.trace
        fresh = 0
        for tenant in sorted(self.tenants):
            st = self._states[tenant]
            deadline = self._deadline(tenant)
            for s in trace.find("colza.execute", st.span_cursor, pipeline=self._wire(tenant)):
                n = max(1, len(self.deployment.live_daemons()))
                work = s.duration * n
                st.works.append(work)
                del st.works[: -self.HISTORY]
                st.latest = s.duration
                st.times.append(self.sim.now)
                del st.times[: -self.HISTORY]
                st.obs += 1
                fresh += 1
                if s.duration > deadline:
                    st.misses += 1
                    self._scope.counter("slo_miss").inc()
            st.span_cursor = len(trace.spans)
        return fresh

    # ------------------------------------------------------------------
    # predict
    def _predict_work(self, st: _TenantState) -> float:
        """Next iteration's work: max(latest, EWMA) + positive trend."""
        ewma = st.works[0]
        for w in st.works[1:]:
            ewma = (1.0 - self.slo.work_alpha) * ewma + self.slo.work_alpha * w
        predicted = max(st.works[-1], ewma)
        if len(st.works) >= 2:
            predicted += max(0.0, st.works[-1] - st.works[-2])
        return predicted

    def _period_estimate(self, st: _TenantState) -> float:
        """EWMA of this tenant's inter-observation time (the iteration
        period the amortization horizon is denominated in)."""
        if len(st.times) < 2:
            return 1.0
        gaps = [b - a for a, b in zip(st.times, st.times[1:])]
        est = gaps[0]
        for g in gaps[1:]:
            est = 0.5 * est + 0.5 * g
        return max(est, 1e-9)

    # ------------------------------------------------------------------
    # decide
    def _budget_left(self, tenant: str) -> int:
        tslo = self.tenants[tenant]
        st = self._states[tenant]
        recent = [o for o in st.charges if st.obs - o < tslo.budget_window]
        return tslo.resize_budget - len(recent)

    def _plan(self, n: int) -> SloDecision:
        """The predictive planner (the default policy)."""
        slo = self.slo
        needed: Dict[str, int] = {}
        predicted: Dict[str, float] = {}
        for tenant in sorted(self.tenants):
            st = self._states[tenant]
            if not st.works:
                needed[tenant] = slo.min_servers
                continue
            w = self._predict_work(st)
            predicted[tenant] = w
            raw = math.ceil(w / (self._deadline(tenant) * slo.headroom))
            needed[tenant] = min(max(raw, slo.min_servers), slo.max_servers)

        # --- grow: any tenant (with budget) predicting a too-small group
        demanders = [t for t in sorted(needed) if needed[t] > n]
        eligible = []
        for tenant in demanders:
            if self._budget_left(tenant) > 0:
                eligible.append(tenant)
            else:
                self._event("budget_exhausted", detail=tenant, target=needed[tenant])
        if eligible:
            self._shrink_streak = 0
            target = max(needed[t] for t in eligible)
            if self._cooldown > 0:
                return SloDecision("hold", f"cooldown ({self._cooldown} left)")
            miss_imminent = any(
                predicted[t] / n > self._deadline(t) for t in eligible
            )
            if not miss_imminent:
                # Pre-emptive headroom grow: must amortize the resize.
                w = max(predicted[t] for t in eligible)
                saved = (w / n - w / target) * slo.amortize_iterations
                if saved < self.resize_cost:
                    return SloDecision(
                        "hold",
                        f"grow to {target} not amortized "
                        f"({saved:.1f}s < {self.resize_cost:.1f}s)",
                    )
            self._charge(eligible)
            return SloDecision(
                "grow",
                f"predicted execute misses deadline for {','.join(eligible)}",
                amount=target - n,
                target=target,
            )

        # --- shrink: every tenant agrees the group is oversized
        candidates = [needed[t] for t in needed] or [slo.min_servers]
        target = max(max(candidates), slo.min_servers)
        if target >= n:
            self._shrink_streak = 0
            return SloDecision("hold", "within target band", target=n)
        self._shrink_streak += 1
        if self._cooldown > 0:
            return SloDecision("hold", f"cooldown ({self._cooldown} left)")
        if self._shrink_streak < slo.shrink_patience:
            return SloDecision(
                "hold",
                f"oversized, awaiting patience "
                f"({self._shrink_streak}/{slo.shrink_patience})",
                target=target,
            )
        period = max(self._period_estimate(s) for s in self._states.values())
        saved = (n - target) * period * slo.amortize_iterations
        if saved < self.resize_cost:
            return SloDecision(
                "hold",
                f"shrink to {target} not amortized "
                f"({saved:.1f}s < {self.resize_cost:.1f}s)",
                target=target,
            )
        return SloDecision(
            "shrink", "sustained headroom", amount=n - target, target=target
        )

    def _charge(self, tenants: List[str]) -> None:
        for tenant in tenants:
            st = self._states[tenant]
            st.charges.append(st.obs)

    # ------------------------------------------------------------------
    # the control step
    def step_from_trace(self) -> Generator:
        """One closed-loop step: ingest telemetry, decide, actuate.

        Never raises (kernel control-flow exceptions excepted): a bug in
        the loop is recorded as an ``error`` event and the controller
        degrades, because a controller that crashes its host application
        is strictly worse than no controller.
        """
        sim = self.sim
        yield sim.timeout(0)
        try:
            decision = yield from self._step_inner()
        except Interrupt:
            raise
        except Exception as err:  # noqa: BLE001 — the contract is "never crash"
            self._event("error", detail=f"{type(err).__name__}: {err}")
            self._set_degraded(True, f"internal error: {type(err).__name__}")
            decision = SloDecision("hold", "internal error", degraded=True)
        self.decisions.append(decision)
        return decision

    def _set_degraded(self, value: bool, why: str) -> None:
        if value and not self.degraded:
            self._event("degraded", detail=why)
        elif not value and self.degraded:
            self._event("recovered", detail=why)
        self.degraded = value
        self._scope.gauge("controller_degraded").set(1 if value else 0)

    def _hold(self, why: str, degraded: bool = False) -> SloDecision:
        self._event("decision", detail=f"hold: {why}")
        return SloDecision("hold", why, degraded=degraded)

    def _step_inner(self) -> Generator:
        sim = self.sim
        slo = self.slo
        fresh = self._ingest()
        tracing = bool(getattr(sim.trace, "enabled", True))
        if fresh == 0:
            self._stale_steps += 1
        else:
            self._stale_steps = 0
            self._tick += 1
            self._cooldown = max(0, self._cooldown - 1)
        if not tracing or (fresh == 0 and self._stale_steps >= slo.stale_after_steps):
            why = "tracing disabled" if not tracing else (
                f"no fresh telemetry for {self._stale_steps} steps"
            )
            self._set_degraded(True, why)
            return self._hold(why, degraded=True)
        if fresh > 0 and self.degraded:
            self._set_degraded(False, "telemetry resumed")
        if fresh == 0:
            return self._hold("no fresh telemetry")

        n = len(self.deployment.live_daemons())
        self._scope.gauge("staging_servers").set(n)
        if self._resize_in_flight:
            # Unreachable from a sequential driver; kept as a hard guard
            # so overlapping drivers hold instead of double-actuating.
            return self._hold("resize in flight")
        if self.policy is None:
            decision = self._plan(n)
        else:
            latest = max(st.latest for st in self._states.values() if st.works)
            decision = self.policy(latest, n, self._cooldown, self.slo)
        self._event(
            "decision", detail=f"{decision.action}: {decision.reason}",
            target=decision.target,
        )
        if decision.action == "grow":
            yield from self._actuate(decision, self._actuate_grow)
        elif decision.action == "shrink":
            yield from self._actuate(decision, self._actuate_shrink)
        return decision

    def _actuate(self, decision: SloDecision, body) -> Generator:
        sim = self.sim
        self._resize_in_flight = True
        self._event("resize_start", detail=decision.action, target=decision.target)
        started = sim.now
        try:
            done = yield from body(decision.amount)
        finally:
            self._resize_in_flight = False
        self._cooldown = self.slo.cooldown_iterations
        self._shrink_streak = 0
        if done:
            self.resizes += 1
            self._scope.counter(f"resize_{decision.action}").inc()
            cost = sim.now - started
            a = self.slo.resize_cost_alpha
            self.resize_cost = (1.0 - a) * self.resize_cost + a * cost
            self._event("resize_done", detail=decision.action, target=decision.target)
        else:
            self._event(
                "resize_failed", detail=decision.action, target=decision.target
            )
        self._scope.gauge("staging_servers").set(
            len(self.deployment.live_daemons())
        )
        return done

    # ------------------------------------------------------------------
    # actuation: grow
    def _pick_node(self) -> int:
        total = len(self.deployment.cluster.nodes)
        for _ in range(total):
            node = self._node_cursor % total
            self._node_cursor += 1
            if node not in self.quarantined:
                return node
        # Every node quarantined: reuse anyway rather than refuse.
        node = self._node_cursor % total
        self._node_cursor += 1
        return node

    def _actuate_grow(self, amount: int) -> Generator:
        for _ in range(amount):
            if (yield from self._grow_one()) is None:
                return False
        return True

    def _grow_one(self) -> Generator:
        """Add one daemon + its pipelines, surviving crash/hang of the
        target: deadline on the whole join, quarantine + different node
        + capped jittered backoff on every failure. The join and each
        deploy are raced against their deadline, so a target's death is
        a routine failed attempt, and a lost race leaves no task behind."""
        sim = self.sim
        slo = self.slo
        for attempt in range(slo.max_resize_attempts):
            node = self._pick_node()
            before = len(self.deployment.daemons)
            join = sim.spawn(self.deployment.add_server(node), name="autoscale-join")
            try:
                _, daemon = yield sim.any_of([join], deadline=slo.join_deadline)
            except Deadline:
                failure = f"join exceeded {slo.join_deadline}s deadline"
            except Exception as err:  # noqa: BLE001 — the target died mid-join
                failure = f"join failed: {type(err).__name__}"
            else:
                if (yield from self._deploy_pipelines(daemon)):
                    return daemon
                failure = f"pipeline deploy failed on {daemon.name}"
            self._abandon(before, node, failure)
            yield sim.timeout(
                backoff_delay(
                    sim, "colza.backoff.autoscale", attempt,
                    slo.backoff_base, slo.backoff_cap,
                )
            )
        return None

    def _deploy_pipelines(self, daemon) -> Generator:
        """Deploy every tenant's pipeline on a freshly joined daemon,
        each deploy under the join deadline."""
        sim = self.sim
        for tenant in sorted(self.tenants):
            admin = ColzaAdmin(self.admin_margo, tenant=tenant)
            deploy = sim.spawn(
                admin.create_pipeline(
                    daemon.address, self.tenants[tenant].pipeline,
                    self.library, self.config,
                ),
                name="autoscale-deploy",
            )
            try:
                yield sim.any_of([deploy], deadline=self.slo.join_deadline)
            except Exception:  # noqa: BLE001 — a deadline or a failed deploy
                return False
        return True

    def _abandon(self, before: int, node: int, why: Optional[str]) -> None:
        """Give up on one join attempt: crash any half-started daemon it
        created (its stale group-file entry then behaves exactly like a
        real crash, which SWIM handles), and quarantine the node."""
        for daemon in self.deployment.daemons[before:]:
            try:
                daemon.crash()
            except Exception:  # noqa: BLE001 — already torn down mid-start
                daemon.running = False
        self.quarantined.add(node)
        self.resize_failures += 1
        self._scope.counter("resize_failures").inc()
        self._event("resize_attempt_failed", detail=f"node {node}: {why}")

    # ------------------------------------------------------------------
    # actuation: shrink
    def _actuate_shrink(self, amount: int) -> Generator:
        """Remove ``amount`` servers, reconciling against the live SSG
        view before every ``leave`` — a member death racing the shrink
        counts toward the target instead of double-removing."""
        sim = self.sim
        slo = self.slo
        target = max(
            len(self.deployment.live_daemons()) - amount, slo.min_servers
        )
        failures = 0
        while failures < slo.max_resize_attempts:
            live = sorted(
                self.deployment.live_daemons(), key=lambda d: str(d.address)
            )
            if len(live) <= target:
                return True  # a concurrent death already did the work
            victim = live[-1]
            leave = sim.spawn(
                ColzaAdmin(self.admin_margo).request_leave(victim.address),
                name="autoscale-leave",
            )
            try:
                yield sim.any_of([leave], deadline=slo.leave_deadline)
                ok = True
            except Exception:  # noqa: BLE001 — a deadline or a failed leave
                ok = False
            if ok:
                # The RPC acked; departure (state migration + LEFT) is
                # asynchronous. Wait it out under the same deadline.
                t0 = sim.now
                while victim.running and sim.now - t0 < slo.leave_deadline:
                    yield sim.timeout(0.25)
                ok = not victim.running
            if not ok:
                failures += 1
                self.resize_failures += 1
                self._scope.counter("resize_failures").inc()
                self._event(
                    "resize_attempt_failed",
                    detail=f"leave of {victim.name} failed or timed out",
                )
                yield sim.timeout(
                    backoff_delay(
                        sim, "colza.backoff.autoscale", failures - 1,
                        slo.backoff_base, slo.backoff_cap,
                    )
                )
        return len(self.deployment.live_daemons()) <= target
