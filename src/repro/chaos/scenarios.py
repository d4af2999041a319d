"""The chaos scenario fleet: seeded end-to-end fault-injection runs.

Each scenario builds a *fresh* full stack (simulation, staging area,
client, pipeline), arms a :class:`FaultPlan`, drives a workload of
resilient iterations through it, lets the group settle, and returns a
:class:`ScenarioResult` carrying the invariant violations (must be
empty) and the trace digest (must be identical across runs with the
same seed — the determinism oracle).

Scenario style guide, for adding new ones:

- register with :func:`@scenario <scenario>`; the function takes a seed
  and returns ``_finish(ctx, info)``;
- fault windows are *relative to the time the stack finished booting*
  (``ctx.t0``), since bring-up length varies with seed;
- link mischief (drop/dup/delay) stays on client<->server links unless
  the scenario deliberately torments SWIM, so gossip-side effects are
  opt-in rather than accidental;
- drop/duplication scenarios use the statistics backend (local-only
  execute): dropping messages *inside* a MoNA collective desyncs the
  communicator sequence and models a fault Colza's transport does not
  actually present. Crash/hang scenarios use the Catalyst/iso backend,
  whose collectives are exactly what the abort-on-death path protects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

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
from repro.na import VirtualPayload
from repro.sim import Simulation
from repro.ssg import SwimConfig
from repro.testing import drive, run_until

__all__ = [
    "ChaosContext",
    "SCENARIOS",
    "ScenarioResult",
    "TenantSession",
    "build_multi_tenant_stack",
    "build_stack",
    "run_scenario",
    "scenario",
    "scenario_names",
]

CLIENT = "client"
STATS = "libcolza-stats.so"
ISO = "libcolza-iso.so"

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

    @property
    def ok(self) -> bool:
        return not self.violations


class ChaosContext:
    """Everything a scenario body needs, in one bag."""

    def __init__(self, sim, deployment, margo, client, handle, monitor, library, config):
        self.sim = sim
        self.deployment = deployment
        self.margo = margo
        self.client = client
        self.handle = handle
        self.monitor = monitor
        self.library = library
        self.config = config
        #: Simulated time when the stack finished booting; fault windows
        #: are offsets from here.
        self.t0 = sim.now
        self.plan: Optional[FaultPlan] = None
        self.engine: Optional[ChaosEngine] = None

    @property
    def servers(self) -> List[str]:
        return [d.name for d in self.deployment.daemons]

    def arm(self, plan: FaultPlan) -> ChaosEngine:
        """Install a fault plan (at most one per context)."""
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
) -> ChaosContext:
    """A booted, converged Colza stack with an invariant monitor attached.

    ``procs_per_node`` co-locates daemons on nodes (failure domains) —
    node-failure scenarios crash all daemons of one node and rely on
    replica placement having avoided it.
    """
    sim = Simulation(seed=seed)
    deployment = Deployment(sim, swim_config=swim or _fast_swim())
    drive(
        sim,
        deployment.start_servers(n_servers, procs_per_node=procs_per_node),
        max_time=300,
    )
    run_until(sim, deployment.converged, max_time=300)
    margo, client = deployment.make_client(node_index=40, name=CLIENT)
    client.CONTROL_TIMEOUT = control_timeout
    drive(sim, client.connect())
    config = dict(config or {})
    if library != STATS and "script" not in config:
        from repro.core.pipelines import IsoSurfaceScript

        config["script"] = IsoSurfaceScript(field="dist", isovalues=[1.0])
        config.setdefault("width", 32)
        config.setdefault("height", 32)
    drive(sim, deployment.deploy_pipeline(margo, "pipe", library, config), max_time=300)
    handle = client.distributed_pipeline_handle("pipe")
    handle.stage_timeout = stage_timeout
    handle.data_timeout = data_timeout
    handle.CONTROL_TIMEOUT = control_timeout
    monitor = InvariantMonitor(sim, deployment).attach()
    return ChaosContext(sim, deployment, margo, client, handle, monitor, library, config)


@dataclass
class TenantSession:
    """One tenant's client-side view of a shared staging area."""

    tenant: str
    margo: Any
    client: Any
    handle: Any


def build_multi_tenant_stack(
    seed: int = 0,
    n_servers: int = 4,
    tenants=("alpha", "beta"),
    library: str = STATS,
    config: Optional[dict] = None,
    tenancy: Optional[TenancyConfig] = None,
    swim: Optional[SwimConfig] = None,
    stage_timeout: Optional[float] = 2.0,
    data_timeout: Optional[float] = 6.0,
    control_timeout: float = 2.0,
) -> ChaosContext:
    """A booted stack shared by several tenants (DESIGN §13).

    Every tenant gets its own client Margo instance, attaches under its
    own namespace, and deploys a pipeline named ``pipe`` — the *same*
    base name for everyone, because namespacing (not naming discipline)
    is what keeps tenants apart. The returned context carries
    ``ctx.sessions[tenant]`` per-tenant bags; the context's primary
    client/handle are the first tenant's.
    """
    sim = Simulation(seed=seed)
    deployment = Deployment(
        sim,
        swim_config=swim or _fast_swim(),
        tenancy=tenancy if tenancy is not None else TenancyConfig(),
    )
    drive(sim, deployment.start_servers(n_servers), max_time=300)
    run_until(sim, deployment.converged, max_time=300)
    config = dict(config or {})
    sessions: Dict[str, TenantSession] = {}
    for i, tenant in enumerate(tenants):
        margo, client = deployment.make_client(
            node_index=40 + i, name=f"{CLIENT}-{tenant}", tenant=tenant
        )
        client.CONTROL_TIMEOUT = control_timeout
        drive(sim, client.connect())
        drive(sim, client.attach())
        drive(
            sim,
            deployment.deploy_pipeline(margo, "pipe", library, config, tenant=tenant),
            max_time=300,
        )
        handle = client.distributed_pipeline_handle("pipe")
        handle.stage_timeout = stage_timeout
        handle.data_timeout = data_timeout
        handle.CONTROL_TIMEOUT = control_timeout
        sessions[tenant] = TenantSession(tenant, margo, client, handle)
    monitor = InvariantMonitor(sim, deployment).attach()
    first = sessions[tenants[0]]
    ctx = ChaosContext(
        sim, deployment, first.margo, first.client, first.handle,
        monitor, library, config,
    )
    ctx.sessions = sessions
    return ctx


def _workload(ctx, iterations=3, blocks=4, payload=None, attempts=5, first=1,
              gap=0.0, handle=None):
    """N resilient iterations; returns the per-iteration view sizes.

    ``gap`` seconds of simulated compute separate iterations (the
    simulation timestep between in situ calls) — that's what spreads
    the workload across a fault window. ``handle`` defaults to the
    context's primary handle; multi-tenant scenarios pass a specific
    session's handle instead.
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
                         gap=0.5, attempts=8, handle=None, first=1,
                         hooks=None):
    """Drive one resilient iteration per trace point, scaling the block
    size by the load multiplier and stepping the controller after each
    iteration (the closed loop's natural cadence).

    ``hooks`` maps iteration numbers to zero-argument callables run
    just before that iteration — scenarios use them to flip faults or
    telemetry at deterministic points in the workload.
    """
    handle = handle or ctx.handle
    hooks = hooks or {}
    for it, load in enumerate(loads, start=first):
        if it in hooks:
            hooks[it]()
        yield ctx.sim.timeout(gap)
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
    )


# ---------------------------------------------------------------------------
# registry
SCENARIOS: Dict[str, Callable[[int], ScenarioResult]] = {}


def scenario(fn: Callable[[int], ScenarioResult]) -> Callable[[int], ScenarioResult]:
    SCENARIOS[fn.__name__.replace("scenario_", "", 1)] = fn
    return fn


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def run_scenario(name: str, seed: int = 0) -> ScenarioResult:
    result = SCENARIOS[name](seed)
    result.name = name
    result.seed = seed
    return result


# ---------------------------------------------------------------------------
# baselines
@scenario
def scenario_baseline_no_faults(seed: int = 0) -> ScenarioResult:
    ctx = build_stack(seed)
    sizes = drive(ctx.sim, _workload(ctx), max_time=600)
    return _finish(ctx, {"view_sizes": sizes})


@scenario
def scenario_baseline_catalyst(seed: int = 0) -> ScenarioResult:
    ctx = build_stack(seed, n_servers=3, library=ISO, data_timeout=None)
    sizes = drive(ctx.sim, _workload(ctx, iterations=2, blocks=3), max_time=600)
    return _finish(ctx, {"view_sizes": sizes})


# ---------------------------------------------------------------------------
# link faults (stats backend: drops must not land inside collectives)
@scenario
def scenario_drop_client_links(seed: int = 0) -> ScenarioResult:
    ctx = build_stack(seed)
    t = ctx.t0
    ctx.arm(FaultPlan((
        LinkFault(t, t + 20, src=CLIENT, drop_p=0.06),
        LinkFault(t, t + 20, dst=CLIENT, drop_p=0.06),
    )))
    sizes = drive(ctx.sim, _workload(ctx, iterations=4, attempts=8, gap=0.8), max_time=600)
    return _finish(ctx, {"view_sizes": sizes})


@scenario
def scenario_drop_storm(seed: int = 0) -> ScenarioResult:
    ctx = build_stack(seed, stage_timeout=1.0, data_timeout=3.0, control_timeout=1.0)
    t = ctx.t0
    ctx.arm(FaultPlan((
        LinkFault(t, t + 10, src=CLIENT, drop_p=0.2),
        LinkFault(t, t + 10, dst=CLIENT, drop_p=0.2),
    )))
    sizes = drive(ctx.sim, _workload(ctx, iterations=3, attempts=10, gap=0.6), max_time=900)
    return _finish(ctx, {"view_sizes": sizes})


@scenario
def scenario_dup_storm(seed: int = 0) -> ScenarioResult:
    """Heavy duplication everywhere: at-most-once dispatch and single
    block ownership are the invariants under test."""
    ctx = build_stack(seed)
    t = ctx.t0
    ctx.arm(FaultPlan((LinkFault(t, t + 8, dup_p=0.4),)))
    sizes = drive(ctx.sim, _workload(ctx, iterations=4, gap=0.5), max_time=600)
    return _finish(ctx, {"view_sizes": sizes})


@scenario
def scenario_delay_jitter(seed: int = 0) -> ScenarioResult:
    ctx = build_stack(seed, swim=_fast_swim(suspect_timeout=2.5))
    t = ctx.t0
    ctx.arm(FaultPlan((LinkFault(t, t + 8, delay=0.04),)))
    sizes = drive(ctx.sim, _workload(ctx, iterations=4, gap=0.5), max_time=600)
    return _finish(ctx, {"view_sizes": sizes})


@scenario
def scenario_drop_during_2pc(seed: int = 0) -> ScenarioResult:
    """Half the client's control messages vanish exactly while the first
    activate runs its 2PC; the retry loop must still reach agreement."""
    ctx = build_stack(seed, control_timeout=0.5)
    t = ctx.t0
    ctx.arm(FaultPlan((
        LinkFault(t, t + 2.0, src=CLIENT, drop_p=0.5),
        LinkFault(t, t + 2.0, dst=CLIENT, drop_p=0.5),
    )))
    sizes = drive(ctx.sim, _workload(ctx, iterations=2, attempts=10), max_time=900)
    return _finish(ctx, {"view_sizes": sizes})


@scenario
def scenario_rdma_slowdown(seed: int = 0) -> ScenarioResult:
    ctx = build_stack(seed, stage_timeout=30.0)
    t = ctx.t0
    ctx.arm(FaultPlan((RdmaFault(t, t + 12, factor=50.0),)))
    sizes = drive(
        ctx.sim,
        _workload(ctx, payload=VirtualPayload((1 << 18,), "float64"), gap=0.5),
        max_time=600,
    )
    stage = ctx.sim.trace.durations("colza.stage")
    return _finish(ctx, {"view_sizes": sizes, "max_stage_s": max(stage)})


# ---------------------------------------------------------------------------
# partitions
@scenario
def scenario_partition_brief_heal(seed: int = 0) -> ScenarioResult:
    """A 1 s partition, shorter than the suspicion timeout: suspicion
    must end in refutation, never death, and the views re-agree."""
    ctx = build_stack(seed, swim=_fast_swim(suspect_timeout=3.0))
    t = ctx.t0
    victim = ctx.servers[-1]
    plan = FaultPlan((Partition(t + 1.0, t + 2.0, side_a=(victim,)),))
    # The window is sized for refutation: a death would be a protocol
    # bug, so do NOT exempt the partitioned member.
    ctx.arm(plan)
    ctx.monitor.exempt.clear()
    sizes = drive(ctx.sim, _workload(ctx, iterations=4, attempts=8, gap=0.6), max_time=600)
    return _finish(ctx, {"view_sizes": sizes}, settle=8.0)


@scenario
def scenario_partition_during_activate(seed: int = 0) -> ScenarioResult:
    ctx = build_stack(seed, control_timeout=1.0, swim=_fast_swim(suspect_timeout=3.0))
    t = ctx.t0
    victim = ctx.servers[0]
    ctx.arm(FaultPlan((Partition(t, t + 1.2, side_a=(victim,)),)))
    sizes = drive(ctx.sim, _workload(ctx, iterations=3, attempts=8, gap=0.5), max_time=600)
    return _finish(ctx, {"view_sizes": sizes}, settle=8.0)


@scenario
def scenario_partition_ejects_minority(seed: int = 0) -> ScenarioResult:
    """A long partition: the group (correctly) ejects the unreachable
    minority; since DEAD is terminal the scenario kills the stranded
    daemon at heal time, and the survivors converge without it."""
    ctx = build_stack(seed, n_servers=4)
    t = ctx.t0
    victim = ctx.servers[-1]
    ctx.arm(FaultPlan((
        Partition(t, t + 8.0, side_a=(victim,)),
        CrashFault(at=t + 8.0, server=victim),
    )))
    sizes = drive(ctx.sim, _workload(ctx, iterations=4, attempts=8, gap=1.0), max_time=600)
    return _finish(ctx, {"view_sizes": sizes})


# ---------------------------------------------------------------------------
# crashes (Catalyst backend: collective execute + abort-on-death)
@scenario
def scenario_crash_mid_execute(seed: int = 0) -> ScenarioResult:
    """Kill a member mid-collective. Recovery depends entirely on the
    provider's abort-on-death path (no data-plane timeouts armed): this
    is the canary scenario the broken-invariant test relies on."""
    ctx = build_stack(
        seed, n_servers=3, library=ISO,
        stage_timeout=None, data_timeout=None,
        swim=_fast_swim(suspect_timeout=1.0),
    )
    sim = ctx.sim
    # A clean first iteration, then heavy blocks (~2 s of collective
    # compute per server) with a crash landing inside the execute.
    drive(sim, _workload(ctx, iterations=1, blocks=3), max_time=600)
    heavy = VirtualPayload((256, 256, 256), "int32")
    victim = ctx.servers[-1]
    ctx.arm(FaultPlan((CrashFault(at=sim.now + 1.0, server=victim),)))
    sizes = drive(
        sim, _workload(ctx, iterations=1, blocks=3, payload=heavy, first=2),
        max_time=600,
    )
    aborts = sim.trace.counters.get("colza.abort_on_death", 0)
    if aborts < 1:
        ctx.monitor.violations.append(
            "crash did not land mid-execute (no abort-on-death fired); "
            "re-tune the crash offset"
        )
    return _finish(ctx, {"view_sizes": sizes, "aborts": aborts})


@scenario
def scenario_crash_mid_stage(seed: int = 0) -> ScenarioResult:
    ctx = build_stack(seed)
    t = ctx.t0
    victim = ctx.servers[1]
    ctx.arm(FaultPlan((
        RdmaFault(t, t + 3.0, factor=300.0),
        CrashFault(at=t + 0.3, server=victim),
    )))
    sizes = drive(
        ctx.sim,
        _workload(ctx, blocks=8, payload=VirtualPayload((1 << 21,), "float64"),
                  attempts=8),
        max_time=600,
    )
    return _finish(ctx, {"view_sizes": sizes})


@scenario
def scenario_crash_between_iterations(seed: int = 0) -> ScenarioResult:
    ctx = build_stack(seed, n_servers=3, library=ISO, data_timeout=None)
    sim = ctx.sim
    drive(sim, _workload(ctx, iterations=1, blocks=3), max_time=600)
    victim = ctx.servers[-1]
    ctx.arm(FaultPlan((CrashFault(at=sim.now + 0.05, server=victim),)))
    sim.run(until=sim.now + 0.1)
    sizes = drive(sim, _workload(ctx, iterations=2, blocks=3, first=2), max_time=600)
    return _finish(ctx, {"view_sizes": sizes})


@scenario
def scenario_double_crash(seed: int = 0) -> ScenarioResult:
    ctx = build_stack(seed, n_servers=5)
    t = ctx.t0
    ctx.arm(FaultPlan((
        CrashFault(at=t + 1.0, server=ctx.servers[4]),
        CrashFault(at=t + 4.0, server=ctx.servers[3]),
    )))
    sizes = drive(ctx.sim, _workload(ctx, iterations=4, attempts=8, gap=1.5), max_time=600)
    return _finish(ctx, {"view_sizes": sizes})


@scenario
def scenario_crash_then_join(seed: int = 0) -> ScenarioResult:
    """A member dies; a replacement is srun'd in mid-run and must be a
    first-class member (pipeline deployed, part of the frozen view)."""
    ctx = build_stack(seed, n_servers=3)
    sim = ctx.sim
    victim = ctx.servers[-1]
    ctx.arm(FaultPlan((CrashFault(at=ctx.t0 + 0.5, server=victim),)))
    sizes = drive(sim, _workload(ctx, iterations=2, attempts=8, gap=0.4), max_time=600)

    def add_replacement():
        daemon = yield from ctx.deployment.add_server(node_index=8)
        yield from ctx.admin().create_pipeline(
            daemon.address, "pipe", ctx.library, ctx.config
        )
        return daemon

    drive(sim, add_replacement(), max_time=300)
    run_until(sim, ctx.deployment.converged, max_time=60)
    sizes += drive(sim, _workload(ctx, iterations=1, first=3), max_time=600)
    return _finish(ctx, {"view_sizes": sizes, "final_members": len(ctx.deployment.addresses())})


# ---------------------------------------------------------------------------
# replication & recovery (DESIGN §11; stats backend tuned so one
# 64 KiB block takes ~1.6 s of execute — crashes at +1.0 land after
# staging completed and inside the execute, yet a survivor that
# adopted orphans still finishes 2-3 blocks within data_timeout)
REPLICATED = {"replication_factor": 2, "bytes_per_second": 4e4}


def _core_counters(ctx) -> Dict[str, int]:
    core = ctx.sim.metrics.scope("core")
    return {
        name: core.counter(name).value
        for name in (
            "blocks_staged",
            "blocks_replicated",
            "blocks_recovered",
            "restage_fallbacks",
        )
    }


@scenario
def scenario_replicated_crash_owner_mid_iteration(seed: int = 0) -> ScenarioResult:
    """K=2, one owner dies mid-iteration: the retry must rebuild the
    block distribution from replicas with ZERO client re-stages."""
    ctx = build_stack(seed, n_servers=4, config=dict(REPLICATED))
    sim = ctx.sim
    drive(sim, _workload(ctx, iterations=1, blocks=4), max_time=600)
    before = _core_counters(ctx)
    victim = ctx.servers[-1]
    ctx.arm(FaultPlan((CrashFault(at=sim.now + 1.0, server=victim),)))
    sizes = drive(
        sim, _workload(ctx, iterations=1, blocks=4, first=2, attempts=8),
        max_time=600,
    )
    after = _core_counters(ctx)
    staged_delta = after["blocks_staged"] - before["blocks_staged"]
    recovered = after["blocks_recovered"] - before["blocks_recovered"]
    fallbacks = after["restage_fallbacks"] - before["restage_fallbacks"]
    if staged_delta != 4:
        ctx.monitor.violations.append(
            f"client re-staged during recovery: blocks_staged delta "
            f"{staged_delta} != 4"
        )
    if recovered < 1:
        ctx.monitor.violations.append(
            "no blocks recovered from replicas (crash offset mistimed?)"
        )
    if fallbacks != 0:
        ctx.monitor.violations.append(
            f"unexpected restage fallback with f=1 < K=2 ({fallbacks})"
        )
    return _finish(ctx, {"view_sizes": sizes, "staged_delta": staged_delta,
                         "recovered": recovered, "fallbacks": fallbacks})


@scenario
def scenario_replicated_crash_during_recovery(seed: int = 0) -> ScenarioResult:
    """A second member dies while the first crash's recovery is still
    in flight. The epoch guard and the span-end semantics of the
    NoBlockLoss audit must keep every invariant green; whether the
    outcome is a second recovery or a legitimate fallback depends on
    how far re-replication got (both are recorded in info)."""
    ctx = build_stack(seed, n_servers=4, config=dict(REPLICATED))
    sim = ctx.sim
    drive(sim, _workload(ctx, iterations=1, blocks=4), max_time=600)
    before = _core_counters(ctx)
    first_victim = ctx.servers[-1]
    ctx.arm(FaultPlan((CrashFault(at=sim.now + 1.0, server=first_victim),)))
    second_victim = ctx.servers[-2]
    armed = []

    def second_crash():
        deadline = sim.now + 120.0
        while sim.trace.counters.get("colza.block_recovered", 0) < 1:
            if sim.now >= deadline:
                return
            yield sim.timeout(0.05)
        ctx.monitor.note_failure(second_victim)
        daemon = next(d for d in ctx.deployment.daemons if d.name == second_victim)
        if daemon.running:
            daemon.crash()
            armed.append(sim.now)

    sim.spawn(second_crash(), name="chaos-crash-during-recovery")
    sizes = drive(
        sim, _workload(ctx, iterations=1, blocks=4, first=2, attempts=10),
        max_time=900,
    )
    after = _core_counters(ctx)
    recovered = after["blocks_recovered"] - before["blocks_recovered"]
    if not armed:
        ctx.monitor.violations.append(
            "second crash never fired: recovery never adopted a block"
        )
    if recovered < 1:
        ctx.monitor.violations.append("no blocks recovered from replicas")
    return _finish(ctx, {
        "view_sizes": sizes, "second_crash_at": armed,
        "recovered": recovered,
        "fallbacks": after["restage_fallbacks"] - before["restage_fallbacks"],
    })


@scenario
def scenario_replicated_owner_and_buddy_crash(seed: int = 0) -> ScenarioResult:
    """Both copies of block 0 die (f = K = 2): recovery must report the
    block missing and the client must provably fall back to one full
    re-stage — not hang, and not execute on a partial block set."""
    from repro.core.replication import replica_buddies

    ctx = build_stack(seed, n_servers=4, config=dict(REPLICATED))
    sim = ctx.sim
    drive(sim, _workload(ctx, iterations=1, blocks=4), max_time=600)
    before = _core_counters(ctx)
    view = sorted(ctx.deployment.addresses())
    owner = view[0]  # block_id_mod: block 0 -> first member of the view
    buddy = replica_buddies("pipe", 2, 0, owner, view, 2)[0]
    ctx.arm(FaultPlan(tuple(
        CrashFault(at=sim.now + 1.0, server=name_of(v)) for v in (owner, buddy)
    )))
    sizes = drive(
        sim, _workload(ctx, iterations=1, blocks=4, first=2, attempts=10),
        max_time=900,
    )
    after = _core_counters(ctx)
    staged_delta = after["blocks_staged"] - before["blocks_staged"]
    fallbacks = after["restage_fallbacks"] - before["restage_fallbacks"]
    if fallbacks != 1:
        ctx.monitor.violations.append(
            f"owner+buddy double crash must force exactly one restage "
            f"fallback, got {fallbacks}"
        )
    if staged_delta != 8:
        ctx.monitor.violations.append(
            f"full re-stage expected (4 original + 4 fallback), "
            f"blocks_staged delta was {staged_delta}"
        )
    return _finish(ctx, {"view_sizes": sizes, "staged_delta": staged_delta,
                         "fallbacks": fallbacks})


@scenario
def scenario_replicated_node_failure(seed: int = 0) -> ScenarioResult:
    """Two daemons share each node; node 0 dies whole. Failure-domain-
    aware placement must have pushed every replica off-node, so both
    orphaned blocks recover without any client re-stage."""
    ctx = build_stack(
        seed, n_servers=4, procs_per_node=2, config=dict(REPLICATED)
    )
    sim = ctx.sim
    drive(sim, _workload(ctx, iterations=1, blocks=4), max_time=600)
    before = _core_counters(ctx)
    node0 = [d.name for d in ctx.deployment.daemons[:2]]
    ctx.arm(FaultPlan(tuple(
        CrashFault(at=sim.now + 1.0, server=v) for v in node0
    )))
    sizes = drive(
        sim, _workload(ctx, iterations=1, blocks=4, first=2, attempts=10),
        max_time=900,
    )
    after = _core_counters(ctx)
    staged_delta = after["blocks_staged"] - before["blocks_staged"]
    recovered = after["blocks_recovered"] - before["blocks_recovered"]
    fallbacks = after["restage_fallbacks"] - before["restage_fallbacks"]
    if staged_delta != 4:
        ctx.monitor.violations.append(
            f"client re-staged after node failure: delta {staged_delta} != 4"
        )
    if recovered < 2:
        ctx.monitor.violations.append(
            f"both node-0 blocks must come back from off-node replicas, "
            f"recovered only {recovered}"
        )
    if fallbacks != 0:
        ctx.monitor.violations.append(
            f"node failure with off-node replicas must not fall back "
            f"({fallbacks})"
        )
    return _finish(ctx, {"view_sizes": sizes, "staged_delta": staged_delta,
                         "recovered": recovered, "fallbacks": fallbacks})


# ---------------------------------------------------------------------------
# elastic churn
@scenario
def scenario_churn_stress(seed: int = 0) -> ScenarioResult:
    """Join/leave churn concurrent with the iteration loop."""
    ctx = build_stack(seed, n_servers=4)
    sim = ctx.sim
    rng = sim.rng.stream("chaos.churn")

    def churn():
        admin = ctx.admin()
        for i in range(3):
            yield sim.timeout(1.0 + float(rng.uniform(0.0, 2.0)))
            live = ctx.deployment.live_daemons()
            if rng.random() < 0.5 and len(live) > 3:
                victim = max(live, key=lambda d: d.address)
                yield from admin.request_leave(victim.address)
            else:
                daemon = yield from ctx.deployment.add_server(node_index=10 + i)
                yield from admin.create_pipeline(
                    daemon.address, "pipe", ctx.library, ctx.config
                )

    churn_task = sim.spawn(churn(), name="chaos-churn")
    sizes = drive(sim, _workload(ctx, iterations=5, attempts=10, gap=1.2), max_time=900)
    run_until(sim, lambda: churn_task.finished, max_time=300)
    return _finish(ctx, {"view_sizes": sizes}, settle=10.0)


@scenario
def scenario_deferred_leave_while_frozen(seed: int = 0) -> ScenarioResult:
    """A leave requested mid-iteration must be deferred until the
    deactivate, then honored (frozen views stay frozen)."""
    ctx = build_stack(seed, n_servers=3)
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
    sizes = drive(sim, _workload(ctx, iterations=1, first=2), max_time=600)
    info["view_sizes"] = sizes
    if len(ctx.deployment.addresses()) != 2:
        ctx.monitor.violations.append("deferred leave never happened")
    return _finish(ctx, info)


# ---------------------------------------------------------------------------
# multi-tenant fabric (DESIGN §13)
def _tenant_counters(ctx, tenant: str) -> Dict[str, int]:
    scope = ctx.sim.metrics.scope(f"tenant.{tenant}")
    return {
        name: scope.counter(name).value
        for name in (
            "iterations_completed",
            "iteration_retries",
            "restage_fallbacks",
            "blocks_staged",
        )
    }


@scenario
def scenario_tenant_churn_storm(seed: int = 0) -> ScenarioResult:
    """Two stable tenants iterate while ephemeral tenants attach, run
    one iteration each, and detach — under an admission cap with room
    for exactly one ephemeral at a time. Tenant churn (attach, deploy,
    stage, detach-with-teardown) must never perturb the stable tenants:
    zero retries, every iteration on the first attempt."""
    ctx = build_multi_tenant_stack(
        seed, tenants=("alpha", "beta"), tenancy=TenancyConfig(max_tenants=3)
    )
    sim = ctx.sim
    sizes: Dict[str, List[int]] = {}

    def stable(tenant):
        sizes[tenant] = yield from _workload(
            ctx, iterations=4, blocks=3, gap=0.8,
            handle=ctx.sessions[tenant].handle,
        )

    tasks = [
        sim.spawn(stable(t), name=f"workload-{t}") for t in ("alpha", "beta")
    ]

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
    run_until(sim, lambda: all(t.finished for t in tasks), max_time=900)
    info = {"view_sizes": sizes}
    for tenant in ("alpha", "beta"):
        counters = _tenant_counters(ctx, tenant)
        if sizes.get(tenant) is None or len(sizes[tenant]) != 4:
            ctx.monitor.violations.append(
                f"stable tenant {tenant!r} did not finish its 4 iterations"
            )
        if counters["iteration_retries"] != 0:
            ctx.monitor.violations.append(
                f"tenant churn caused {counters['iteration_retries']} "
                f"retries for stable tenant {tenant!r}"
            )
    rosters = {
        tuple(d.provider.tenants.tenants())
        for d in ctx.deployment.live_daemons()
    }
    if rosters != {("alpha", "beta")}:
        ctx.monitor.violations.append(
            f"ephemeral tenants left admission state behind: {rosters}"
        )
    return _finish(ctx, info)


@scenario
def scenario_tenant_owner_crash_recovery_isolated(seed: int = 0) -> ScenarioResult:
    """K=2 for both tenants; a shared server dies mid-iteration for
    tenant alpha. Alpha must recover its orphans from replicas (the
    DESIGN §11 path, zero client re-stages) while beta — which waits
    out SWIM convergence and then runs a full iteration — must see NO
    interference: first-attempt activate, zero retries, zero
    fallbacks, exactly one stage per block."""
    ctx = build_multi_tenant_stack(seed, n_servers=4, config=dict(REPLICATED))
    sim = ctx.sim
    alpha = ctx.sessions["alpha"]
    beta = ctx.sessions["beta"]
    drive(sim, _workload(ctx, iterations=1, blocks=4, handle=alpha.handle),
          max_time=600)
    drive(sim, _workload(ctx, iterations=1, blocks=4, handle=beta.handle),
          max_time=600)
    before_core = _core_counters(ctx)
    before_beta = _tenant_counters(ctx, "beta")
    before_alpha = _tenant_counters(ctx, "alpha")
    victim = ctx.servers[-1]
    ctx.arm(FaultPlan((CrashFault(at=sim.now + 1.0, server=victim),)))
    alpha_sizes: List[int] = []

    def alpha_body():
        alpha_sizes.extend((yield from _workload(
            ctx, iterations=1, blocks=4, first=2, attempts=8,
            handle=alpha.handle,
        )))

    alpha_task = sim.spawn(alpha_body(), name="workload-alpha")
    victim_daemon = next(d for d in ctx.deployment.daemons if d.name == victim)
    run_until(sim, lambda: not victim_daemon.running, max_time=120)
    run_until(sim, ctx.deployment.converged, max_time=120)
    beta_sizes = drive(
        sim, _workload(ctx, iterations=1, blocks=4, first=2, handle=beta.handle),
        max_time=600,
    )
    run_until(sim, lambda: alpha_task.finished, max_time=600)
    after_core = _core_counters(ctx)
    after_beta = _tenant_counters(ctx, "beta")
    after_alpha = _tenant_counters(ctx, "alpha")
    recovered = after_core["blocks_recovered"] - before_core["blocks_recovered"]
    if not alpha_sizes:
        ctx.monitor.violations.append("alpha's crashed iteration never completed")
    if recovered < 1:
        ctx.monitor.violations.append(
            "alpha recovered no blocks from replicas (crash offset mistimed?)"
        )
    if after_alpha["restage_fallbacks"] - before_alpha["restage_fallbacks"] != 0:
        ctx.monitor.violations.append(
            "alpha fell back to re-staging although f=1 < K=2"
        )
    beta_retries = after_beta["iteration_retries"] - before_beta["iteration_retries"]
    beta_staged = after_beta["blocks_staged"] - before_beta["blocks_staged"]
    beta_fallbacks = after_beta["restage_fallbacks"] - before_beta["restage_fallbacks"]
    if beta_retries != 0:
        ctx.monitor.violations.append(
            f"alpha's crash recovery stalled beta: {beta_retries} retries"
        )
    if beta_staged != 4:
        ctx.monitor.violations.append(
            f"beta staged {beta_staged} blocks instead of exactly 4 "
            f"(stage retries leaked across tenants)"
        )
    if beta_fallbacks != 0:
        ctx.monitor.violations.append(
            f"beta hit {beta_fallbacks} restage fallbacks for a crash "
            f"that predated its activate"
        )
    return _finish(ctx, {
        "alpha_sizes": alpha_sizes, "beta_sizes": beta_sizes,
        "recovered": recovered, "beta_retries": beta_retries,
        "beta_staged": beta_staged,
    })


@scenario
def scenario_tenant_recovery_race(seed: int = 0) -> ScenarioResult:
    """Both tenants are mid-iteration when a shared server dies. Both
    recoveries then run concurrently on the same survivors; each must
    adopt its own tenant's orphans from replicas — zero restage
    fallbacks for either, no cross-tenant adoption (the charge-coverage
    and containment audits run on every stage/activate)."""
    ctx = build_multi_tenant_stack(seed, n_servers=4, config=dict(REPLICATED))
    sim = ctx.sim
    for tenant in ("alpha", "beta"):
        drive(
            sim,
            _workload(ctx, iterations=1, blocks=4,
                      handle=ctx.sessions[tenant].handle),
            max_time=600,
        )
    before_core = _core_counters(ctx)
    before = {t: _tenant_counters(ctx, t) for t in ("alpha", "beta")}
    victim = ctx.servers[-1]
    ctx.arm(FaultPlan((CrashFault(at=sim.now + 1.0, server=victim),)))
    tasks = [
        sim.spawn(
            _workload(ctx, iterations=1, blocks=4, first=2, attempts=8,
                      handle=ctx.sessions[t].handle),
            name=f"workload-{t}",
        )
        for t in ("alpha", "beta")
    ]
    run_until(sim, lambda: all(t.finished for t in tasks), max_time=900)
    after_core = _core_counters(ctx)
    recovered = after_core["blocks_recovered"] - before_core["blocks_recovered"]
    if recovered < 2:
        ctx.monitor.violations.append(
            f"each tenant should adopt at least one orphan from replicas, "
            f"recovered only {recovered} in total"
        )
    deltas = {}
    for tenant in ("alpha", "beta"):
        counters = _tenant_counters(ctx, tenant)
        fallbacks = counters["restage_fallbacks"] - before[tenant]["restage_fallbacks"]
        staged = counters["blocks_staged"] - before[tenant]["blocks_staged"]
        deltas[tenant] = {"fallbacks": fallbacks, "staged": staged}
        if fallbacks != 0:
            ctx.monitor.violations.append(
                f"tenant {tenant!r} fell back to re-staging although "
                f"f=1 < K=2 ({fallbacks})"
            )
        if staged != 4:
            ctx.monitor.violations.append(
                f"tenant {tenant!r} staged {staged} blocks instead of "
                f"exactly 4 (recovery raced into a re-stage)"
            )
    return _finish(ctx, {"recovered": recovered, "deltas": deltas})


# ---------------------------------------------------------------------------
# hangs and slowness
@scenario
def scenario_hang_blip(seed: int = 0) -> ScenarioResult:
    """A 0.6 s hang, shorter than the suspicion timeout: the group may
    suspect the frozen process but must refute, not eject."""
    ctx = build_stack(seed, swim=_fast_swim(suspect_timeout=3.0))
    t = ctx.t0
    victim = ctx.servers[2]
    plan = FaultPlan((HangFault(t + 0.5, t + 1.1, server=victim),))
    ctx.arm(plan)
    ctx.monitor.exempt.clear()  # refutation expected: death = violation
    sizes = drive(ctx.sim, _workload(ctx, iterations=4, attempts=8, gap=0.4), max_time=600)
    return _finish(ctx, {"view_sizes": sizes}, settle=8.0)


@scenario
def scenario_hang_eject(seed: int = 0) -> ScenarioResult:
    """A hang much longer than the suspicion timeout: SWIM must eject
    the hung process (DEAD is terminal, so the engine kills it at the
    window's end) and the workload must route around it."""
    ctx = build_stack(seed, swim=_fast_swim(suspect_timeout=1.0))
    t = ctx.t0
    victim = ctx.servers[-1]
    ctx.arm(FaultPlan((
        HangFault(t + 0.5, t + 8.0, server=victim, kill_at_end=True),
    )))
    sizes = drive(ctx.sim, _workload(ctx, iterations=4, attempts=8, gap=1.0), max_time=600)
    return _finish(ctx, {"view_sizes": sizes})


@scenario
def scenario_slow_node(seed: int = 0) -> ScenarioResult:
    ctx = build_stack(seed, config={"bytes_per_second": 2e7})
    t = ctx.t0
    ctx.arm(FaultPlan((SlowFault(t, t + 30, server=ctx.servers[0], factor=6.0),)))
    payload = VirtualPayload((1 << 17,), "float64")  # 1 MiB
    sizes = drive(ctx.sim, _workload(ctx, payload=payload, gap=0.3), max_time=600)
    execs = ctx.sim.trace.durations("colza.execute")
    return _finish(ctx, {"view_sizes": sizes, "max_execute_s": max(execs)})


# ---------------------------------------------------------------------------
# the closed-loop SLO controller under attack (DESIGN §16)
#
# These scenarios fault the *controller's own actuation and inputs*,
# not just the protocol under it: the product being tested is that the
# control loop survives its own failure modes. Every scenario watches
# the controller with the ControllerSafety invariant — bounds, single
# resize in flight, cooldown, degraded-instead-of-raise.

#: One staging server's share of a 1 MiB iteration at this rate takes
#: ~0.26 s on two servers — big enough that a burst crosses a ~1 s SLO,
#: small enough that scenarios stay fast.
AUTOSCALE_BPS = 2e6
AUTOSCALE_SLO = dict(
    deadline=1.2, min_servers=1, max_servers=4, cooldown_iterations=1,
    shrink_patience=6, join_deadline=8.0, leave_deadline=8.0,
    initial_resize_cost=4.0,
)


@scenario
def scenario_slow_straggler_autoscale(seed: int = 0) -> ScenarioResult:
    """The reactive policy under the same audit: a straggler pushes
    execute time over the band's high threshold (a healthy pair takes
    ~0.26 s), and the controller must grow the area."""
    ctx = build_stack(seed, n_servers=2, config={"bytes_per_second": AUTOSCALE_BPS})
    controller = ctx.autoscaler(policy=ThresholdBand(high=0.5, low=1e-4))
    t = ctx.t0
    ctx.arm(FaultPlan((SlowFault(t, t + 200.0, server=ctx.servers[0], factor=8.0),)))
    drive(ctx.sim, _controller_workload(ctx, controller, [1.0] * 3), max_time=1200)
    decisions = [d.action for d in controller.decisions]
    result = _finish(ctx, {
        "decisions": decisions,
        "servers": len(ctx.deployment.live_daemons()),
    })
    if "grow" not in decisions:
        result.violations.append(f"straggler never triggered growth: {decisions}")
    return result


@scenario
def scenario_autoscale_join_target_crash(seed: int = 0) -> ScenarioResult:
    """The controller's scale-up target crashes mid-join: the attempt
    must be abandoned, the node quarantined, and the retry on a
    different node must restore the grow — with the safety audit clean
    and ``resize_failures`` recording the casualty."""
    ctx = build_stack(seed, n_servers=2, config={"bytes_per_second": AUTOSCALE_BPS})
    controller = ctx.autoscaler()
    initial = {d.name for d in ctx.deployment.daemons}
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
    loads = bursty(8, seed=seed, base=1.0, burst=6.0, ramp=2, hold=3,
                   min_gap=2, max_gap=3)
    drive(ctx.sim, _controller_workload(ctx, controller, loads), max_time=1200)
    result = _finish(ctx, {
        "resize_failures": controller.resize_failures,
        "quarantined": sorted(controller.quarantined),
        "servers": len(ctx.deployment.live_daemons()),
        "decisions": [d.action for d in controller.decisions],
    })
    if not crashed:
        result.violations.append("saboteur never caught a joining daemon")
    if controller.resize_failures < 1:
        result.violations.append("the mid-join crash never registered as a resize failure")
    if not controller.quarantined:
        result.violations.append("the crash site was never quarantined")
    if len(ctx.deployment.live_daemons()) <= 2:
        result.violations.append("controller never recovered the grow on another node")
    return result


@scenario
def scenario_autoscale_telemetry_blackout(seed: int = 0) -> ScenarioResult:
    """Tracing goes dark mid-run: the controller must enter degraded
    hold (gauge up, decisions hold, no exception) and recover when
    telemetry returns — never actuating blind."""
    ctx = build_stack(seed, n_servers=2, config={"bytes_per_second": AUTOSCALE_BPS})
    controller = ctx.autoscaler(stale_after_steps=2, min_servers=2)
    window: Dict[str, float] = {}

    def lights_off():
        window["off"] = ctx.sim.now
        ctx.sim.trace.enabled = False

    def lights_on():
        window["on"] = ctx.sim.now
        ctx.sim.trace.enabled = True

    loads = [1.0] * 12
    drive(
        ctx.sim,
        _controller_workload(ctx, controller, loads,
                             hooks={5: lights_off, 9: lights_on}),
        max_time=1200,
    )
    kinds = [e.kind for e in controller.events]
    result = _finish(ctx, {
        "kinds": kinds,
        "degraded_steps": sum(1 for d in controller.decisions if d.degraded),
    })
    if "degraded" not in kinds:
        result.violations.append("blackout never pushed the controller into degraded mode")
    if "recovered" not in kinds:
        result.violations.append("controller never recovered after telemetry returned")
    resized_blind = any(
        e.kind == "resize_start" and window["off"] <= e.t < window["on"]
        for e in controller.events
    )
    if resized_blind:
        result.violations.append("controller actuated during the blackout")
    return result


@scenario
def scenario_autoscale_flapping_straggler(seed: int = 0) -> ScenarioResult:
    """One server flaps between throttled and healthy in short windows:
    cooldown + shrink patience + resize-cost amortization must keep the
    controller from breathing with the flaps."""
    ctx = build_stack(seed, n_servers=2, config={"bytes_per_second": AUTOSCALE_BPS})
    controller = ctx.autoscaler(min_servers=2, shrink_patience=3)
    t = ctx.t0
    straggler = ctx.servers[0]
    ctx.arm(FaultPlan(tuple(
        SlowFault(t + start, t + start + 4.0, server=straggler, factor=6.0)
        for start in (1.0, 9.0, 17.0)
    )))
    loads = [1.0] * 14
    drive(ctx.sim, _controller_workload(ctx, controller, loads, gap=0.6), max_time=1200)
    result = _finish(ctx, {
        "resizes": controller.resizes,
        "decisions": [d.action for d in controller.decisions],
        "servers": len(ctx.deployment.live_daemons()),
    })
    # Two full grow/shrink cycles for three flap windows is the
    # amortized optimum here (the third flap lands inside the second
    # cycle's patience window); breathing once per flap would be 6.
    if controller.resizes > 4:
        result.violations.append(
            f"controller thrashed: {controller.resizes} resizes across 3 flap windows"
        )
    return result


@scenario
def scenario_autoscale_tenant_burst(seed: int = 0) -> ScenarioResult:
    """Two tenants burst on the shared fabric: the noisy tenant's grow
    demands stop at its resize budget (with explicit budget_exhausted
    events) while the other tenant's budget still buys its resize."""
    ctx = build_multi_tenant_stack(
        seed, n_servers=2, config={"bytes_per_second": AUTOSCALE_BPS},
    )
    tenants = {
        "alpha": TenantSlo("pipe", deadline=1.2, resize_budget=1, budget_window=100),
        "beta": TenantSlo("pipe", deadline=1.2, resize_budget=2, budget_window=100),
    }
    controller = ctx.autoscaler(tenants=tenants, min_servers=2, max_servers=6)
    # alpha bursts early and keeps escalating; beta bursts later.
    alpha_loads = [1.0, 1.0, 4.0, 4.0, 8.0, 10.0, 10.0, 10.0]
    beta_loads = [1.0, 1.0, 1.0, 1.0, 1.0, 8.0, 8.0, 8.0]

    def tenant_rounds():
        for it in range(1, len(alpha_loads) + 1):
            yield ctx.sim.timeout(0.4)
            for tenant, load in (("alpha", alpha_loads[it - 1]),
                                 ("beta", beta_loads[it - 1])):
                payload = VirtualPayload((max(1, int((1 << 14) * load)),), "float64")
                blks = [(b, payload) for b in range(8)]
                yield from ctx.sessions[tenant].handle.run_resilient_iteration(
                    it, blks, max_attempts=8
                )
            yield from controller.step_from_trace()

    drive(ctx.sim, tenant_rounds(), max_time=1200)
    kinds = [e.kind for e in controller.events]
    result = _finish(ctx, {
        "alpha_charges": controller.charged_resizes("alpha"),
        "beta_charges": controller.charged_resizes("beta"),
        "servers": len(ctx.deployment.live_daemons()),
        "kinds": kinds,
    })
    if controller.charged_resizes("alpha") > tenants["alpha"].resize_budget:
        result.violations.append("alpha was charged past its resize budget")
    if "budget_exhausted" not in kinds:
        result.violations.append("alpha's escalation never hit its budget fuse")
    if controller.charged_resizes("beta") < 1:
        result.violations.append(
            "beta's burst never bought a resize (starved by alpha's)"
        )
    return result


# ---------------------------------------------------------------------------
# SSG-targeted faults
@scenario
def scenario_gossip_false_suspicion(seed: int = 0) -> ScenarioResult:
    """Suppress all probes of one healthy member long enough to form a
    suspicion, then stop: refutation (incarnation bump) must win."""
    ctx = build_stack(seed, swim=_fast_swim(suspect_timeout=3.0))
    t = ctx.t0
    victim_name = ctx.servers[1]
    ctx.arm(FaultPlan((
        GossipSuppression(t + 1.0, t + 2.2, target=victim_name),
    )))
    sizes = drive(ctx.sim, _workload(ctx, iterations=4, gap=0.7), max_time=600)
    victim = next(d for d in ctx.deployment.daemons if d.name == victim_name)
    result = _finish(ctx, {"view_sizes": sizes,
                           "victim_incarnation": victim.agent.incarnation},
                     settle=8.0)
    if victim.agent.incarnation < 1:
        result.violations.append(
            "suppression never forced a suspicion (victim never refuted); "
            "widen the window"
        )
    return result


# ---------------------------------------------------------------------------
# the kitchen sink
@scenario
def scenario_combo_random(seed: int = 0) -> ScenarioResult:
    """A fully random plan drawn from the seeded stream: the scenario
    that keeps growing the regression corpus — every seed is a new
    schedule, and any seed that ever fails gets pinned in the tests."""
    ctx = build_stack(seed, n_servers=4, stage_timeout=1.5, data_timeout=4.0,
                      control_timeout=1.0)
    rng = ctx.sim.rng.stream("chaos.plan")
    plan = FaultPlan.random(rng, ctx.servers, horizon=15.0, client=CLIENT)
    offset = tuple(
        type(f)(**{**{fld: getattr(f, fld) for fld in f.__dataclass_fields__},
                   **({"at": f.at + ctx.t0} if hasattr(f, "at")
                      else {"start": f.start + ctx.t0, "end": f.end + ctx.t0})})
        for f in plan
    )
    ctx.arm(FaultPlan(offset, note=plan.note))
    sizes = drive(ctx.sim, _workload(ctx, iterations=5, attempts=10, gap=1.0), max_time=900)
    return _finish(ctx, {"view_sizes": sizes, "plan": ctx.plan.describe()})
