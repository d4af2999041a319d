"""The chaos scenario fleet: seeded end-to-end fault-injection runs.

Each scenario is a :class:`Scenario` row of :data:`SCENARIOS`, whose
field docs are the style guide. :func:`run_scenario` builds a *fresh*
full stack from the row, arms its faults, drives its workload, lets
the group settle, and returns a :class:`ScenarioResult`: invariant
violations (must be empty) and the trace digest (identical across runs
with the same seed — the determinism oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.chaos.engine import ChaosEngine
from repro.chaos.faults import (
    CrashFault,
    FaultPlan,
    GossipSuppression,
    HangFault,
    LinkFault,
    Partition,
    RdmaFault,
    SlowFault,
    name_of,
)
from repro.chaos.invariants import InvariantMonitor
import repro.core.pipelines  # noqa: F401  (registers the pipeline libraries)
from repro.bench.loadtraces import bursty
from repro.core import Deployment, TenancyConfig
from repro.core.admin import ColzaAdmin
from repro.core.autoscale import SloAutoscaler, SloConfig, TenantSlo, ThresholdBand
from repro.core.tenancy import DEFAULT_TENANT
from repro.na import VirtualPayload
from repro.sim import Simulation
from repro.ssg import SwimConfig
from repro.testing import drive, run_until

__all__ = [
    "ChaosContext",
    "SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "build_stack",
    "run_scenario",
    "scenario_names",
]

CLIENT = "client"
STATS = "libcolza-stats.so"
ISO = "libcolza-iso.so"
TENANTS = ("alpha", "beta")

#: 64 KiB per block: enough to exercise RDMA without dominating runtime.
LIGHT_BLOCK = VirtualPayload((8192,), "float64")


def _fast_swim(**overrides) -> SwimConfig:
    kwargs = dict(period=0.2, suspect_timeout=1.5)
    kwargs.update(overrides)
    return SwimConfig(**kwargs)


@dataclass
class ScenarioResult:
    """What a scenario run produced (for asserting and for replaying)."""

    name: str
    seed: int
    digest: str
    violations: List[str]
    info: Dict[str, Any] = field(default_factory=dict)
    #: The finished simulation, for tests that inspect the trace or metrics.
    sim: Any = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations


class ChaosContext:
    """Everything a scenario body needs, in one bag."""

    def __init__(self, sim, deployment, handles, monitor, library, config):
        self.sim = sim
        self.deployment = deployment
        #: Each tenant's ``pipe`` handle; an untenanted stack's one handle
        #: is the default tenant's.
        self.handles: Dict[str, Any] = handles
        #: The first tenant's handle, client and Margo instance.
        self.handle = next(iter(handles.values()))
        self.client = self.handle.client
        self.margo = self.client.margo
        self.monitor = monitor
        self.library = library
        self.config = config
        #: Simulated time when the stack finished booting.
        self.t0 = sim.now
        self.plan: Optional[FaultPlan] = None
        self.engine: Optional[ChaosEngine] = None
        #: The elasticity controller a row's ``autoscale`` built, if any.
        self.controller: Optional[SloAutoscaler] = None

    @property
    def servers(self) -> List[str]:
        return [d.name for d in self.deployment.daemons]

    def arm(self, plan: FaultPlan) -> ChaosEngine:
        """Install a fault plan (at most one per context; absolute times)."""
        if self.engine is not None:
            raise RuntimeError("context already armed")
        self.plan = plan
        self.engine = ChaosEngine(
            self.sim, plan, deployment=self.deployment, monitor=self.monitor
        ).install()
        return self.engine

    def admin(self) -> ColzaAdmin:
        return ColzaAdmin(self.margo)

    def autoscaler(self, policy=None, tenants=None, **slo) -> SloAutoscaler:
        """An elasticity controller on this stack, watched by the
        ControllerSafety audit; ``slo`` overrides :data:`AUTOSCALE_SLO`."""
        controller = SloAutoscaler(
            self.deployment, self.margo, self.library, self.config,
            slo=SloConfig(**{**AUTOSCALE_SLO, **slo}), tenants=tenants,
            first_node=8, policy=policy,
        )
        self.monitor.watch_controller(controller)
        return controller


def build_stack(
    seed: int = 0,
    n_servers: int = 4,
    library: str = STATS,
    config: Optional[dict] = None,
    swim: Optional[SwimConfig] = None,
    stage_timeout: Optional[float] = 2.0,
    data_timeout: Optional[float] = 6.0,
    control_timeout: float = 2.0,
    procs_per_node: int = 1,
    tenants: Optional[Tuple[str, ...]] = None,
    tenancy: Optional[TenancyConfig] = None,
) -> ChaosContext:
    """A booted, converged Colza stack with an invariant monitor attached.

    ``procs_per_node`` co-locates daemons on nodes (failure domains) —
    node-failure scenarios crash all daemons of one node and rely on
    replica placement having avoided it. With ``tenants`` the stack is
    shared (DESIGN §13): each tenant's client attaches under its own
    namespace and deploys a pipeline named ``pipe`` — the *same* base
    name for everyone, because namespacing is what keeps tenants apart.
    Without them the one client is named ``client``, never attaches,
    and a non-stats library gets an iso-surface script by default.
    """
    sim = Simulation(seed=seed)
    if tenants is not None and tenancy is None:
        tenancy = TenancyConfig()
    deployment = Deployment(sim, swim_config=swim or _fast_swim(), tenancy=tenancy)
    boot = deployment.start_servers(n_servers, procs_per_node=procs_per_node)
    drive(sim, boot, max_time=300)
    run_until(sim, deployment.converged, max_time=300)
    config = dict(config or {})
    if tenants is None and library != STATS and "script" not in config:
        from repro.core.pipelines import IsoSurfaceScript

        config["script"] = IsoSurfaceScript(field="dist", isovalues=[1.0])
        config.setdefault("width", 32)
        config.setdefault("height", 32)
    handles = {}
    for i, tenant in enumerate(tenants or (DEFAULT_TENANT,)):
        name = CLIENT if tenants is None else f"{CLIENT}-{tenant}"
        margo, client = deployment.make_client(node_index=40 + i, name=name, tenant=tenant)
        client.CONTROL_TIMEOUT = control_timeout
        drive(sim, client.connect())
        if tenants is not None:
            drive(sim, client.attach())
        deploy = deployment.deploy_pipeline(margo, "pipe", library, config, tenant=tenant)
        drive(sim, deploy, max_time=300)
        handle = client.distributed_pipeline_handle("pipe")
        handle.stage_timeout = stage_timeout
        handle.data_timeout = data_timeout
        handle.CONTROL_TIMEOUT = control_timeout
        handles[tenant] = handle
    monitor = InvariantMonitor(sim, deployment).attach()
    return ChaosContext(sim, deployment, handles, monitor, library, config)


def _workload(ctx, iterations=3, blocks=4, payload=None, attempts=5, first=1,
              gap=0.0, handle=None):
    """N resilient iterations; returns the per-iteration view sizes.

    ``gap`` seconds of simulated compute separate iterations (the
    simulation timestep between in situ calls) — that's what spreads
    the workload across a fault window. ``handle`` defaults to the
    context's primary handle.
    """
    payload = payload or LIGHT_BLOCK
    handle = handle or ctx.handle
    sizes = []
    for it in range(first, first + iterations):
        if gap > 0:
            yield ctx.sim.timeout(gap)
        blks = [(b, payload) for b in range(blocks)]
        view = yield from handle.run_resilient_iteration(
            it, blks, max_attempts=attempts
        )
        sizes.append(len(view))
    return sizes


def _controller_workload(ctx, controller, loads, base_elements=1 << 14, blocks=8,
                         gap=0.5, attempts=8, first=1, hooks=None):
    """Drive one resilient iteration per trace point, scaling the block
    size by the load multiplier and stepping the controller after each
    iteration (the closed loop's natural cadence).

    ``loads`` is one trace for the primary handle, or a tenant -> trace
    mapping: each tenant then runs the step's iteration in turn before
    the controller steps. ``hooks`` maps iteration numbers to
    zero-argument callables run just before that iteration — scenarios
    use them to flip faults or telemetry at deterministic points.
    """
    traces = loads if isinstance(loads, Mapping) else {None: loads}
    handles = [ctx.handle if t is None else ctx.handles[t] for t in traces]
    hooks = hooks or {}
    for it, step in enumerate(zip(*traces.values()), start=first):
        if it in hooks:
            hooks[it]()
        yield ctx.sim.timeout(gap)
        for handle, load in zip(handles, step):
            payload = VirtualPayload((max(1, int(base_elements * load)),), "float64")
            blks = [(b, payload) for b in range(blocks)]
            yield from handle.run_resilient_iteration(it, blks, max_attempts=attempts)
        yield from controller.step_from_trace()
    return controller


def _finish(ctx, info: Optional[dict] = None, settle: float = 6.0) -> ScenarioResult:
    """Run out the fault horizon, verify convergence, collect the result."""
    sim = ctx.sim
    horizon = ctx.plan.horizon() if ctx.plan is not None else 0.0
    sim.run(until=max(sim.now, horizon) + settle)
    try:
        run_until(sim, ctx.deployment.converged, max_time=60)
    except TimeoutError:
        pass  # recorded as a violation by final_check below
    ctx.monitor.final_check()
    if ctx.engine is not None:
        ctx.engine.uninstall()
    ctx.monitor.detach()
    return ScenarioResult(
        name="",  # filled by run_scenario
        seed=-1,
        digest=sim.trace.digest(),
        violations=list(ctx.monitor.violations),
        info=dict(info or {}),
        sim=sim,
    )


@dataclass(frozen=True)
class Scenario:
    """One row of the fleet, run by :func:`run_scenario` in field order."""

    #: :func:`build_stack` keyword arguments. Drop/duplication rows keep
    #: the statistics backend (local execute): dropping messages inside a
    #: MoNA collective desyncs the communicator, a fault Colza's transport
    #: does not present. Crash/hang rows use the iso backend, whose
    #: collectives the abort-on-death path protects.
    build: Mapping[str, Any] = field(default_factory=dict)
    #: :meth:`ChaosContext.autoscaler` keyword arguments; the controller
    #: is ``ctx.controller`` and the workload steps it.
    autoscale: Optional[Mapping[str, Any]] = None
    #: Clean iterations per tenant before arming, at the workload's block
    #: count; the armed workload numbers on from them.
    warmup: int = 0
    #: ``(ctx) -> fault specs`` timed relative to the arm instant (boot
    #: length varies with the seed). Link mischief stays on client<->server
    #: links unless the row torments SWIM on purpose.
    faults: Optional[Callable[[ChaosContext], Iterable[Any]]] = None
    #: Clear the monitor's exemptions after arming: the window is sized
    #: for refutation, so a death verdict is a protocol bug.
    refute: bool = False
    #: :func:`_workload` keyword arguments (:func:`_controller_workload`'s
    #: with ``autoscale``).
    workload: Mapping[str, Any] = field(default_factory=dict)
    #: ``(ctx) -> info`` driving the armed window instead of the workload —
    #: only for what one workload cannot say: concurrent tenants,
    #: saboteurs and hooks, a mid-run join, a pause, a drawn plan. Its own
    #: checks append to ``ctx.monitor.violations``.
    body: Optional[Callable[[ChaosContext], Dict[str, Any]]] = None
    #: ``info`` key -> ``(source, want)``, read once the armed drive
    #: returns: a counter name reads its delta over the armed window, a
    #: callable reads ``source(ctx)``. ``want`` is a number, ``">=N"`` /
    #: ``"<=N"``, a predicate, or ``None`` (record only); a miss is a
    #: violation.
    expect: Mapping[str, Tuple[Any, Any]] = field(default_factory=dict)
    #: Simulated seconds run past the fault horizon before the final check.
    settle: float = 6.0


def _count(ctx, name: str) -> float:
    """A registry counter's value, 0.0 if the run never produced it.
    Reads through ``metrics.get``: a read must not register a metric."""
    metric = ctx.sim.metrics.get(name)
    return 0.0 if metric is None else metric.value


def _meets(value, want) -> bool:
    if isinstance(want, str):
        bound = float(want[2:])
        return {">=": value >= bound, "<=": value <= bound}[want[:2]]
    return want is None or (want(value) if callable(want) else value == want)


def run_scenario(name: str, seed: int = 0) -> ScenarioResult:
    """Run the row ``name`` on a fresh stack seeded with ``seed``."""
    row = SCENARIOS[name]
    ctx = build_stack(seed, **row.build)
    sim = ctx.sim
    if row.autoscale is not None:
        ctx.controller = ctx.autoscaler(**row.autoscale)
    if row.warmup:
        blocks = row.workload.get("blocks", 4)
        for handle in ctx.handles.values():
            drive(sim, _workload(ctx, iterations=row.warmup, blocks=blocks, handle=handle),
                  max_time=600)
    if row.faults is not None:
        ctx.arm(FaultPlan(tuple(row.faults(ctx))).shifted(sim.now))
    if row.refute:
        ctx.monitor.exempt.clear()
    before = {
        key: _count(ctx, source)
        for key, (source, _) in row.expect.items() if isinstance(source, str)
    }
    first = row.warmup + 1
    if row.body is not None:
        info = row.body(ctx)
    elif ctx.controller is not None:
        drive(sim, _controller_workload(ctx, ctx.controller, first=first, **row.workload),
              max_time=900)
        info = {}
    else:
        info = {"view_sizes": drive(sim, _workload(ctx, first=first, **row.workload),
                                    max_time=900)}
    for key, (source, want) in row.expect.items():
        value = _count(ctx, source) - before[key] if key in before else source(ctx)
        info[key] = value
        if not _meets(value, want):
            ctx.monitor.violations.append(
                f"{key} = {value!r} over the armed window, expected {want}"
            )
    result = _finish(ctx, info, settle=row.settle)
    result.name = name
    result.seed = seed
    return result


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


# ---------------------------------------------------------------------------
# fragments shared by rows and bodies
def _daemon(ctx, name: str):
    return next(d for d in ctx.deployment.daemons if d.name == name)


def _servers(ctx) -> int:
    return len(ctx.deployment.live_daemons())


def _decisions(ctx) -> List[str]:
    return [d.action for d in ctx.controller.decisions]


def _kinds(ctx) -> List[str]:
    return [e.kind for e in ctx.controller.events]


def _longest(span: str) -> Callable[[Any], float]:
    """Reader of the longest finished ``span`` so far (simulated s)."""
    return lambda ctx: max(ctx.sim.trace.durations(span))


def _add_member(ctx, node_index: int):
    """srun one more daemon and deploy the stack's pipeline on it."""
    daemon = yield from ctx.deployment.add_server(node_index=node_index)
    yield from ctx.admin().create_pipeline(daemon.address, "pipe", ctx.library, ctx.config)


def _tenant_counts(ctx, metric: str) -> Dict[str, float]:
    return {t: _count(ctx, f"tenant.{t}.{metric}") for t in TENANTS}


def _spawn_tenant(ctx, tenant: str, **workload):
    """One tenant's :func:`_workload` as a concurrent task."""
    gen = _workload(ctx, handle=ctx.handles[tenant], **workload)
    return ctx.sim.spawn(gen, name=f"workload-{tenant}")


def _client_links(end: float, **mischief) -> Tuple[LinkFault, LinkFault]:
    """The same mischief on both directions of the client's links."""
    return (
        LinkFault(0.0, end, src=CLIENT, **mischief),
        LinkFault(0.0, end, dst=CLIENT, **mischief),
    )


def _crash_last(ctx) -> Tuple[CrashFault]:
    return (CrashFault(at=1.0, server=ctx.servers[-1]),)


def _block0_copies(ctx) -> Tuple[Any, Any]:
    """Block 0's owner (block_id_mod: the view's first member) and its
    one replica buddy under K=2."""
    from repro.core.replication import replica_buddies

    view = sorted(ctx.deployment.addresses())
    return view[0], replica_buddies("pipe", 2, 0, view[0], view, 2)[0]


# replication & recovery (DESIGN §11): one 64 KiB block takes ~1.6 s of
# execute, so a crash at +1.0 lands after staging and inside the execute,
# yet a survivor that adopted orphans finishes within data_timeout.
REPLICATED = {"replication_factor": 2, "bytes_per_second": 4e4}
STAGED = "core.blocks_staged"
RECOVERED = "core.blocks_recovered"
FALLBACKS = "core.restage_fallbacks"

# the closed-loop SLO controller under attack (DESIGN §16): these rows
# fault the *controller's own actuation and inputs*, not just the
# protocol under it, and the ControllerSafety invariant watches every
# one — bounds, single resize in flight, cooldown, degraded-instead-of-
# raise.
#: One staging server's share of a 1 MiB iteration at this rate takes
#: ~0.26 s on two servers — big enough that a burst crosses a ~1 s SLO,
#: small enough that scenarios stay fast.
AUTOSCALE_BPS = 2e6
AUTOSCALE_SLO = dict(
    deadline=1.2, min_servers=1, max_servers=4, cooldown_iterations=1,
    shrink_patience=6, join_deadline=8.0, leave_deadline=8.0,
    initial_resize_cost=4.0,
)
AUTOSCALE_STACK = dict(n_servers=2, config={"bytes_per_second": AUTOSCALE_BPS})


# bodies: the scenarios whose armed window is not one workload
def _crash_between_iterations(ctx) -> Dict[str, Any]:
    """The crash lands in a pause between two iterations."""
    ctx.sim.run(until=ctx.sim.now + 0.1)
    return {"view_sizes": drive(ctx.sim, _workload(ctx, iterations=2, blocks=3, first=2))}


def _crash_then_join(ctx) -> Dict[str, Any]:
    """A member dies; a replacement is srun'd in mid-run and must be a
    first-class member (pipeline deployed, part of the frozen view)."""
    sim = ctx.sim
    sizes = drive(sim, _workload(ctx, iterations=2, attempts=8, gap=0.4), max_time=600)
    drive(sim, _add_member(ctx, node_index=8), max_time=300)
    run_until(sim, ctx.deployment.converged, max_time=60)
    sizes += drive(sim, _workload(ctx, iterations=1, first=3), max_time=600)
    return {"view_sizes": sizes, "final_members": len(ctx.deployment.addresses())}


def _replicated_crash_during_recovery(ctx) -> Dict[str, Any]:
    """A second member dies while the first crash's recovery is still
    in flight. The epoch guard and the span-end semantics of the
    NoBlockLoss audit must keep every invariant green; whether the
    outcome is a second recovery or a legitimate fallback depends on
    how far re-replication got (both are recorded in info)."""
    sim = ctx.sim
    second = _daemon(ctx, ctx.servers[-2])
    armed: List[float] = []

    def second_crash():
        deadline = sim.now + 120.0
        while sim.trace.counters.get("colza.block_recovered", 0) < 1:
            if sim.now >= deadline:
                return
            yield sim.timeout(0.05)
        ctx.monitor.note_failure(second.name)
        if second.running:
            second.crash()
            armed.append(sim.now)

    sim.spawn(second_crash(), name="chaos-crash-during-recovery")
    sizes = drive(sim, _workload(ctx, iterations=1, first=2, attempts=10), max_time=900)
    if not armed:
        ctx.monitor.violations.append(
            "second crash never fired: recovery never adopted a block"
        )
    return {"view_sizes": sizes, "second_crash_at": armed}


def _churn_stress(ctx) -> Dict[str, Any]:
    """Join/leave churn concurrent with the iteration loop."""
    sim = ctx.sim
    rng = sim.rng.stream("chaos.churn")

    def churn():
        for i in range(3):
            yield sim.timeout(1.0 + float(rng.uniform(0.0, 2.0)))
            live = ctx.deployment.live_daemons()
            if rng.random() < 0.5 and len(live) > 3:
                victim = max(live, key=lambda d: d.address)
                yield from ctx.admin().request_leave(victim.address)
            else:
                yield from _add_member(ctx, node_index=10 + i)

    churn_task = sim.spawn(churn(), name="chaos-churn")
    sizes = drive(sim, _workload(ctx, iterations=5, attempts=10, gap=1.2), max_time=900)
    run_until(sim, lambda: churn_task.finished, max_time=300)
    return {"view_sizes": sizes}


def _deferred_leave_while_frozen(ctx) -> Dict[str, Any]:
    """A leave requested mid-iteration must be deferred until the
    deactivate, then honored (frozen views stay frozen)."""
    sim = ctx.sim
    handle = ctx.handle

    def body():
        yield from handle.activate(1)
        for b in range(3):
            yield from handle.stage(1, b, LIGHT_BLOCK)
        victim = max(ctx.deployment.live_daemons(), key=lambda d: d.address)
        verdict = yield from ctx.admin().request_leave(victim.address)
        frozen_len = len(handle.frozen_view)
        yield from handle.execute(1)
        yield from handle.deactivate(1)
        return verdict, frozen_len, victim

    verdict, frozen_len, victim = drive(sim, body(), max_time=600)
    info = {"leave_verdict": verdict, "frozen_len": frozen_len}
    if verdict != "deferred":
        ctx.monitor.violations.append(
            f"leave during frozen view was not deferred (got {verdict!r})"
        )
    run_until(sim, lambda: not victim.running, max_time=60)
    info["view_sizes"] = drive(sim, _workload(ctx, iterations=1, first=2), max_time=600)
    if len(ctx.deployment.addresses()) != 2:
        ctx.monitor.violations.append("deferred leave never happened")
    return info


def _tenant_churn_storm(ctx) -> Dict[str, Any]:
    """Two stable tenants iterate while ephemeral tenants attach, run
    one iteration each, and detach — under an admission cap with room
    for exactly one ephemeral at a time. Tenant churn (attach, deploy,
    stage, detach-with-teardown) must never perturb the stable tenants:
    zero retries, every iteration on the first attempt."""
    sim = ctx.sim
    tasks = {
        t: _spawn_tenant(ctx, t, iterations=4, blocks=3, gap=0.8) for t in TENANTS
    }

    def ephemeral_churn():
        for i in range(3):
            tenant = f"eph{i}"
            margo, client = ctx.deployment.make_client(
                node_index=50 + i, name=f"{CLIENT}-{tenant}", tenant=tenant
            )
            yield from client.connect()
            # The previous ephemeral already detached (this loop is
            # sequential), so the cap has room — attach must succeed.
            yield from client.attach()
            yield from ctx.deployment.deploy_pipeline(
                margo, "pipe", ctx.library, ctx.config, tenant=tenant
            )
            handle = client.distributed_pipeline_handle("pipe")
            yield from handle.run_resilient_iteration(
                1, [(b, LIGHT_BLOCK) for b in range(2)]
            )
            # Detach tears the namespace down everywhere: pipelines,
            # staged data, quota charges, the admission slot.
            yield from client.detach()

    drive(sim, ephemeral_churn(), max_time=900)
    run_until(sim, lambda: all(t.finished for t in tasks.values()), max_time=900)
    for tenant, retries in _tenant_counts(ctx, "iteration_retries").items():
        if retries != 0:
            ctx.monitor.violations.append(
                f"tenant churn caused {retries} retries for stable tenant {tenant!r}"
            )
    rosters = {tuple(d.provider.tenants.tenants()) for d in ctx.deployment.live_daemons()}
    if rosters != {TENANTS}:
        ctx.monitor.violations.append(
            f"ephemeral tenants left admission state behind: {rosters}"
        )
    return {"view_sizes": {t: task.done.value for t, task in tasks.items()}}


def _tenant_owner_crash_recovery_isolated(ctx) -> Dict[str, Any]:
    """K=2 for both tenants; a shared server dies mid-iteration for
    tenant alpha. Alpha must recover its orphans from replicas (the
    DESIGN §11 path, zero client re-stages) while beta — which waits
    out SWIM convergence and then runs a full iteration — must see NO
    interference: first-attempt activate, zero retries, zero
    fallbacks, exactly one stage per block."""
    sim = ctx.sim
    fallbacks = _tenant_counts(ctx, "restage_fallbacks")
    alpha_task = _spawn_tenant(ctx, "alpha", iterations=1, first=2, attempts=8)
    victim = _daemon(ctx, ctx.servers[-1])
    run_until(sim, lambda: not victim.running, max_time=120)
    run_until(sim, ctx.deployment.converged, max_time=120)
    beta = _workload(ctx, iterations=1, first=2, handle=ctx.handles["beta"])
    beta_sizes = drive(sim, beta, max_time=600)
    run_until(sim, lambda: alpha_task.finished, max_time=600)
    if _tenant_counts(ctx, "restage_fallbacks") != fallbacks:
        ctx.monitor.violations.append(
            "a tenant fell back to re-staging for a crash f=1 < K=2 replicas cover"
        )
    return {"alpha_sizes": alpha_task.done.value, "beta_sizes": beta_sizes}


def _tenant_recovery_race(ctx) -> Dict[str, Any]:
    """Both tenants are mid-iteration when a shared server dies. Both
    recoveries then run concurrently on the same survivors; each must
    adopt its own tenant's orphans from replicas — zero restage
    fallbacks for either, no cross-tenant adoption (the charge-coverage
    and containment audits run on every stage/activate)."""
    metrics = {"fallbacks": "restage_fallbacks", "staged": "blocks_staged"}
    before = {k: _tenant_counts(ctx, m) for k, m in metrics.items()}
    tasks = [_spawn_tenant(ctx, t, iterations=1, first=2, attempts=8) for t in TENANTS]
    run_until(ctx.sim, lambda: all(t.finished for t in tasks), max_time=900)
    after = {k: _tenant_counts(ctx, m) for k, m in metrics.items()}
    deltas = {t: {k: after[k][t] - before[k][t] for k in metrics} for t in TENANTS}
    for tenant, delta in deltas.items():
        if delta != {"fallbacks": 0, "staged": 4}:
            ctx.monitor.violations.append(
                f"tenant {tenant!r} recovery raced into a re-stage: {delta}, "
                f"expected 0 fallbacks and 4 staged"
            )
    return {"deltas": deltas}


def _autoscale_join_target_crash(ctx) -> Dict[str, Any]:
    """The controller's scale-up target crashes mid-join: the attempt
    must be abandoned, the node quarantined, and the retry on a
    different node must restore the grow — with the safety audit clean
    and ``resize_failures`` recording the casualty."""
    initial = set(ctx.servers)
    crashed: List[str] = []

    def saboteur():
        # Crash the first elastically joining daemon the moment it
        # appears — mid-srun/mid-join, before its pipeline deploys.
        while not crashed and ctx.sim.now < ctx.t0 + 300:
            for d in ctx.deployment.daemons:
                if d.name not in initial:
                    ctx.monitor.note_failure(d.name)
                    d.crash()
                    crashed.append(d.name)
                    return
            yield ctx.sim.timeout(0.05)

    ctx.sim.spawn(saboteur(), name="join-saboteur")
    loads = bursty(8, seed=ctx.sim.rng.seed, base=1.0, burst=6.0, ramp=2, hold=3,
                   min_gap=2, max_gap=3)
    drive(ctx.sim, _controller_workload(ctx, ctx.controller, loads), max_time=1200)
    if not crashed:
        ctx.monitor.violations.append("saboteur never caught a joining daemon")
    return {}


def _autoscale_telemetry_blackout(ctx) -> Dict[str, Any]:
    """Tracing goes dark mid-run: the controller must enter degraded
    hold (gauge up, decisions hold, no exception) and recover when
    telemetry returns — never actuating blind."""
    window: Dict[str, float] = {}

    def lights(on: bool):
        def flip():
            window["on" if on else "off"] = ctx.sim.now
            ctx.sim.trace.enabled = on
        return flip

    drive(
        ctx.sim,
        _controller_workload(ctx, ctx.controller, [1.0] * 12,
                             hooks={5: lights(False), 9: lights(True)}),
        max_time=1200,
    )
    if any(e.kind == "resize_start" and window["off"] <= e.t < window["on"]
           for e in ctx.controller.events):
        ctx.monitor.violations.append("controller actuated during the blackout")
    return {}


def _combo_random(ctx) -> Dict[str, Any]:
    """A fully random plan drawn from the seeded stream: the scenario
    that keeps growing the regression corpus — every seed is a new
    schedule, and any seed that ever fails gets pinned in the tests."""
    rng = ctx.sim.rng.stream("chaos.plan")
    plan = FaultPlan.random(rng, ctx.servers, horizon=15.0, client=CLIENT)
    ctx.arm(plan.shifted(ctx.t0))
    sizes = drive(ctx.sim, _workload(ctx, iterations=5, attempts=10, gap=1.0), max_time=900)
    return {"view_sizes": sizes, "plan": ctx.plan.describe()}


# ---------------------------------------------------------------------------
# the table
SCENARIOS: Dict[str, Scenario] = {
    # baselines
    "baseline_no_faults": Scenario(),
    "baseline_catalyst": Scenario(
        build=dict(n_servers=3, library=ISO, data_timeout=None),
        workload=dict(iterations=2, blocks=3),
    ),
    # link faults (stats backend: drops must not land inside collectives)
    "drop_client_links": Scenario(
        faults=lambda ctx: _client_links(20.0, drop_p=0.06),
        workload=dict(iterations=4, attempts=8, gap=0.8),
    ),
    "drop_storm": Scenario(
        build=dict(stage_timeout=1.0, data_timeout=3.0, control_timeout=1.0),
        faults=lambda ctx: _client_links(10.0, drop_p=0.2),
        workload=dict(iterations=3, attempts=10, gap=0.6),
    ),
    # Heavy duplication everywhere: at-most-once dispatch and single
    # block ownership are the invariants under test.
    "dup_storm": Scenario(
        faults=lambda ctx: (LinkFault(0.0, 8.0, dup_p=0.4),),
        workload=dict(iterations=4, gap=0.5),
    ),
    "delay_jitter": Scenario(
        build=dict(swim=_fast_swim(suspect_timeout=2.5)),
        faults=lambda ctx: (LinkFault(0.0, 8.0, delay=0.04),),
        workload=dict(iterations=4, gap=0.5),
    ),
    # Half the client's control messages vanish exactly while the first
    # activate runs its 2PC; the retry loop must still reach agreement.
    "drop_during_2pc": Scenario(
        build=dict(control_timeout=0.5),
        faults=lambda ctx: _client_links(2.0, drop_p=0.5),
        workload=dict(iterations=2, attempts=10),
    ),
    "rdma_slowdown": Scenario(
        build=dict(stage_timeout=30.0),
        faults=lambda ctx: (RdmaFault(0.0, 12.0, factor=50.0),),
        workload=dict(payload=VirtualPayload((1 << 18,), "float64"), gap=0.5),
        expect=dict(max_stage_s=(_longest("colza.stage"), None)),
    ),
    # partitions
    # A 1 s partition, shorter than the suspicion timeout: suspicion
    # must end in refutation, never death, and the views re-agree.
    "partition_brief_heal": Scenario(
        build=dict(swim=_fast_swim(suspect_timeout=3.0)),
        faults=lambda ctx: (Partition(1.0, 2.0, side_a=(ctx.servers[-1],)),),
        refute=True,
        workload=dict(iterations=4, attempts=8, gap=0.6),
        settle=8.0,
    ),
    "partition_during_activate": Scenario(
        build=dict(control_timeout=1.0, swim=_fast_swim(suspect_timeout=3.0)),
        faults=lambda ctx: (Partition(0.0, 1.2, side_a=(ctx.servers[0],)),),
        workload=dict(iterations=3, attempts=8, gap=0.5),
        settle=8.0,
    ),
    # A long partition: the group (correctly) ejects the unreachable
    # minority; since DEAD is terminal the row kills the stranded daemon
    # at heal time, and the survivors converge without it.
    "partition_ejects_minority": Scenario(
        faults=lambda ctx: (
            Partition(0.0, 8.0, side_a=(ctx.servers[-1],)),
            CrashFault(at=8.0, server=ctx.servers[-1]),
        ),
        workload=dict(iterations=4, attempts=8, gap=1.0),
    ),
    # crashes (Catalyst backend: collective execute + abort-on-death)
    # Kill a member mid-collective: a clean iteration, then heavy blocks
    # (~2 s of collective compute per server). Recovery depends entirely
    # on the provider's abort-on-death path (no data-plane timeouts
    # armed): this is the canary the broken-invariant test relies on.
    "crash_mid_execute": Scenario(
        build=dict(n_servers=3, library=ISO, stage_timeout=None, data_timeout=None,
                   swim=_fast_swim(suspect_timeout=1.0)),
        warmup=1,
        faults=_crash_last,
        workload=dict(iterations=1, blocks=3,
                      payload=VirtualPayload((256, 256, 256), "int32")),
        expect=dict(aborts=(
            lambda ctx: ctx.sim.trace.counters.get("colza.abort_on_death", 0), ">=1",
        )),
    ),
    "crash_mid_stage": Scenario(
        faults=lambda ctx: (
            RdmaFault(0.0, 3.0, factor=300.0),
            CrashFault(at=0.3, server=ctx.servers[1]),
        ),
        workload=dict(blocks=8, payload=VirtualPayload((1 << 21,), "float64"), attempts=8),
    ),
    "crash_between_iterations": Scenario(
        build=dict(n_servers=3, library=ISO, data_timeout=None),
        warmup=1,
        faults=lambda ctx: (CrashFault(at=0.05, server=ctx.servers[-1]),),
        workload=dict(blocks=3),
        body=_crash_between_iterations,
    ),
    "double_crash": Scenario(
        build=dict(n_servers=5),
        faults=lambda ctx: (
            CrashFault(at=1.0, server=ctx.servers[4]),
            CrashFault(at=4.0, server=ctx.servers[3]),
        ),
        workload=dict(iterations=4, attempts=8, gap=1.5),
    ),
    "crash_then_join": Scenario(
        build=dict(n_servers=3),
        faults=lambda ctx: (CrashFault(at=0.5, server=ctx.servers[-1]),),
        body=_crash_then_join,
    ),
    # replication & recovery
    # K=2, one owner dies mid-iteration: the retry must rebuild the
    # block distribution from replicas with ZERO client re-stages.
    "replicated_crash_owner_mid_iteration": Scenario(
        build=dict(config=REPLICATED),
        warmup=1,
        faults=_crash_last,
        workload=dict(iterations=1, attempts=8),
        expect=dict(staged_delta=(STAGED, 4), recovered=(RECOVERED, ">=1"),
                    fallbacks=(FALLBACKS, 0)),
    ),
    "replicated_crash_during_recovery": Scenario(
        build=dict(config=REPLICATED),
        warmup=1,
        faults=_crash_last,
        expect=dict(recovered=(RECOVERED, ">=1"), fallbacks=(FALLBACKS, None)),
        body=_replicated_crash_during_recovery,
    ),
    # Both copies of block 0 die (f = K = 2): recovery must report the
    # block missing and the client must provably fall back to one full
    # re-stage (4 original + 4 fallback) — not hang, and not execute on
    # a partial block set.
    "replicated_owner_and_buddy_crash": Scenario(
        build=dict(config=REPLICATED),
        warmup=1,
        faults=lambda ctx: tuple(
            CrashFault(at=1.0, server=name_of(a)) for a in _block0_copies(ctx)
        ),
        workload=dict(iterations=1, attempts=10),
        expect=dict(staged_delta=(STAGED, 8), fallbacks=(FALLBACKS, 1)),
    ),
    # Two daemons share each node; node 0 dies whole. Failure-domain-
    # aware placement must have pushed every replica off-node, so both
    # orphaned blocks recover without any client re-stage.
    "replicated_node_failure": Scenario(
        build=dict(procs_per_node=2, config=REPLICATED),
        warmup=1,
        faults=lambda ctx: tuple(CrashFault(at=1.0, server=s) for s in ctx.servers[:2]),
        workload=dict(iterations=1, attempts=10),
        expect=dict(staged_delta=(STAGED, 4), recovered=(RECOVERED, ">=2"),
                    fallbacks=(FALLBACKS, 0)),
    ),
    # elastic churn
    "churn_stress": Scenario(settle=10.0, body=_churn_stress),
    "deferred_leave_while_frozen": Scenario(
        build=dict(n_servers=3), body=_deferred_leave_while_frozen,
    ),
    # multi-tenant fabric (DESIGN §13)
    "tenant_churn_storm": Scenario(
        build=dict(tenants=TENANTS, tenancy=TenancyConfig(max_tenants=3)),
        body=_tenant_churn_storm,
    ),
    "tenant_owner_crash_recovery_isolated": Scenario(
        build=dict(tenants=TENANTS, config=REPLICATED),
        warmup=1,
        faults=_crash_last,
        expect=dict(
            recovered=(RECOVERED, ">=1"),
            beta_retries=("tenant.beta.iteration_retries", 0),
            beta_staged=("tenant.beta.blocks_staged", 4),
        ),
        body=_tenant_owner_crash_recovery_isolated,
    ),
    "tenant_recovery_race": Scenario(
        build=dict(tenants=TENANTS, config=REPLICATED),
        warmup=1,
        faults=_crash_last,
        expect=dict(recovered=(RECOVERED, ">=2")),
        body=_tenant_recovery_race,
    ),
    # hangs and slowness
    # A 0.6 s hang, shorter than the suspicion timeout: the group may
    # suspect the frozen process but must refute, not eject.
    "hang_blip": Scenario(
        build=dict(swim=_fast_swim(suspect_timeout=3.0)),
        faults=lambda ctx: (HangFault(0.5, 1.1, server=ctx.servers[2]),),
        refute=True,
        workload=dict(iterations=4, attempts=8, gap=0.4),
        settle=8.0,
    ),
    # A hang much longer than the suspicion timeout: SWIM must eject the
    # hung process (DEAD is terminal, so the engine kills it at the
    # window's end) and the workload must route around it.
    "hang_eject": Scenario(
        build=dict(swim=_fast_swim(suspect_timeout=1.0)),
        faults=lambda ctx: (HangFault(0.5, 8.0, server=ctx.servers[-1], kill_at_end=True),),
        workload=dict(iterations=4, attempts=8, gap=1.0),
    ),
    "slow_node": Scenario(
        build=dict(config={"bytes_per_second": 2e7}),
        faults=lambda ctx: (SlowFault(0.0, 30.0, server=ctx.servers[0], factor=6.0),),
        workload=dict(payload=VirtualPayload((1 << 17,), "float64"), gap=0.3),  # 1 MiB
        expect=dict(max_execute_s=(_longest("colza.execute"), None)),
    ),
    # the elasticity controller under attack
    # The reactive policy under the same audit: a straggler pushes
    # execute time over the band's high threshold (a healthy pair takes
    # ~0.26 s), and the controller must grow the area.
    "slow_straggler_autoscale": Scenario(
        build=AUTOSCALE_STACK,
        autoscale=dict(policy=ThresholdBand(high=0.5, low=1e-4)),
        faults=lambda ctx: (SlowFault(0.0, 200.0, server=ctx.servers[0], factor=8.0),),
        workload=dict(loads=[1.0] * 3),
        expect=dict(decisions=(_decisions, lambda d: "grow" in d), servers=(_servers, None)),
    ),
    "autoscale_join_target_crash": Scenario(
        build=AUTOSCALE_STACK,
        autoscale={},
        expect=dict(
            resize_failures=(lambda ctx: ctx.controller.resize_failures, ">=1"),
            quarantined=(lambda ctx: sorted(ctx.controller.quarantined), bool),
            servers=(_servers, ">=3"),
            decisions=(_decisions, None),
        ),
        body=_autoscale_join_target_crash,
    ),
    "autoscale_telemetry_blackout": Scenario(
        build=AUTOSCALE_STACK,
        autoscale=dict(stale_after_steps=2, min_servers=2),
        expect=dict(
            kinds=(_kinds, lambda k: "degraded" in k and "recovered" in k),
            degraded_steps=(lambda ctx: sum(1 for d in ctx.controller.decisions
                                            if d.degraded), None),
        ),
        body=_autoscale_telemetry_blackout,
    ),
    # One server flaps between throttled and healthy: cooldown, shrink
    # patience and resize-cost amortization must keep the controller from
    # breathing with the flaps. Two grow/shrink cycles for three flaps is
    # the optimum (the third lands in the second cycle's patience window);
    # breathing once per flap would be 6 resizes.
    "autoscale_flapping_straggler": Scenario(
        build=AUTOSCALE_STACK,
        autoscale=dict(min_servers=2, shrink_patience=3),
        faults=lambda ctx: tuple(
            SlowFault(start, start + 4.0, server=ctx.servers[0], factor=6.0)
            for start in (1.0, 9.0, 17.0)
        ),
        workload=dict(loads=[1.0] * 14, gap=0.6),
        expect=dict(resizes=(lambda ctx: ctx.controller.resizes, "<=4"),
                    decisions=(_decisions, None), servers=(_servers, None)),
    ),
    # Two tenants burst on the shared fabric: the noisy tenant's grow
    # demands stop at its resize budget (with explicit budget_exhausted
    # events) while the other tenant's budget still buys its resize.
    "autoscale_tenant_burst": Scenario(
        build=dict(AUTOSCALE_STACK, tenants=TENANTS),
        autoscale=dict(
            tenants={
                "alpha": TenantSlo("pipe", deadline=1.2, resize_budget=1, budget_window=100),
                "beta": TenantSlo("pipe", deadline=1.2, resize_budget=2, budget_window=100),
            },
            min_servers=2, max_servers=6,
        ),
        # alpha bursts early and keeps escalating; beta bursts later.
        workload=dict(gap=0.4, loads={
            "alpha": [1.0, 1.0, 4.0, 4.0, 8.0, 10.0, 10.0, 10.0],
            "beta": [1.0, 1.0, 1.0, 1.0, 1.0, 8.0, 8.0, 8.0],
        }),
        expect=dict(
            alpha_charges=(lambda ctx: ctx.controller.charged_resizes("alpha"), "<=1"),
            beta_charges=(lambda ctx: ctx.controller.charged_resizes("beta"), ">=1"),
            servers=(_servers, None),
            kinds=(_kinds, lambda k: "budget_exhausted" in k),
        ),
    ),
    # SSG-targeted faults
    # Suppress all probes of one healthy member long enough to form a
    # suspicion, then stop: refutation (incarnation bump) must win.
    "gossip_false_suspicion": Scenario(
        build=dict(swim=_fast_swim(suspect_timeout=3.0)),
        faults=lambda ctx: (GossipSuppression(1.0, 2.2, target=ctx.servers[1]),),
        workload=dict(iterations=4, gap=0.7),
        settle=8.0,
        expect=dict(victim_incarnation=(
            lambda ctx: _daemon(ctx, ctx.servers[1]).agent.incarnation, ">=1",
        )),
    ),
    # the kitchen sink
    "combo_random": Scenario(
        build=dict(stage_timeout=1.5, data_timeout=4.0, control_timeout=1.0),
        body=_combo_random,
    ),
}
