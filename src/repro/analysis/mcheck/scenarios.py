"""Model-checking scenarios: small, protocol-legal racy windows.

Each scenario builds a real stack (the same builders the chaos fleet
uses), runs bring-up under plain FIFO scheduling with the exploration
driver *disarmed*, then arms it around a deliberately concurrent window
— the part whose same-timestamp interleavings the explorer enumerates —
and finally settles, audits, and reduces the run to a
:class:`McheckOutcome`. The two whole-run scenarios at the end
(``resilient_iterations``, ``swim_convergence``) arm before bring-up
instead: they are what ``mcheck --walk`` samples.

Scenario rules (what keeps the clean tree clean in *every* schedule):

- concurrency stays within the client contract: one handle never runs
  two control operations at once unless real retry flows do (late
  duplicate aborts, crash-triggered re-activation);
- client-visible failures the protocol is allowed to produce under
  reordering (activate retry exhaustion, ``stage raced deactivate``)
  are *tolerated outcomes*, recorded in the payload — only invariant
  monitor violations, scenario-level audits (residual quota charges,
  charge/staged accounting, probe stages), and — where a window is
  known race-free — SimTSan reports count as violations;
- every wait on protocol state goes through ``untracked`` so auditing
  is invisible to both SimTSan and the footprint collector.

The statistics backend never suspends in ``deactivate``, which makes
the provider's post-flush epoch guard (the ``if key not in
self._active`` re-check) a zero-width window. The
:class:`FlushingStatsBackend` here restores the width: its deactivate
flushes accumulated results at a configurable throughput before
dropping staged data, so a deactivate overlaps a successor activation
for simulated *seconds* — long enough for the explorer to drive stages
of the new epoch through the stale handler's resume point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.analysis.simtsan import SimTSan, untracked
from repro.core.backend import register_backend
from repro.core.pipelines.stats import StatisticsBackend
from repro.core.tenancy import TenancyConfig, TenantQuota
from repro.sim import Simulation, controlled_ties
from repro.testing import drive, run_until

__all__ = [
    "FLUSH",
    "FlushingStatsBackend",
    "MCHECK_SCENARIOS",
    "McheckOutcome",
    "mcheck_scenario",
    "scenario_names",
]

#: Library name for the flush-on-deactivate statistics pipeline.
FLUSH = "libcolza-mcheck-flush.so"


class FlushingStatsBackend(StatisticsBackend):
    """Statistics pipeline whose ``deactivate`` flushes before dropping.

    ``flush_bytes_per_second`` (default 64 KiB/s) prices the flush of
    the blocks staged *here*; with the chaos fleet's 64 KiB blocks that
    is one simulated second per block — a wide, deterministic window in
    which this provider's deactivate handler is suspended mid-epoch.
    Only the blocks present at flush start are dropped afterwards:
    blocks a successor activation stages while the flush is in flight
    belong to the new epoch and must survive.
    """

    def deactivate(self, iteration: int) -> Generator:
        mine = list(self.staged.get(iteration, ()))
        rate = float(self.config.get("flush_bytes_per_second", 65536.0))
        nbytes = sum(getattr(b.payload, "nbytes", 0) for b in mine)
        yield from self.margo.compute(max(nbytes, 1) / rate)
        held = self.staged.get(iteration)
        if held is not None:
            survivors = [b for b in held if all(b is not m for m in mine)]
            if survivors:
                self.staged[iteration] = survivors
            else:
                self.staged.pop(iteration, None)
        return None


register_backend(FLUSH, FlushingStatsBackend)


@dataclass
class McheckOutcome:
    """What one explored schedule produced."""

    violations: List[str]
    digest: str  #: the run's schedule digest (sim.trace.digest())
    payload: Dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# registry
#: name -> callable(seed, controller) -> McheckOutcome
MCHECK_SCENARIOS: Dict[str, Callable[[int, Any], McheckOutcome]] = {}


def mcheck_scenario(fn):
    MCHECK_SCENARIOS[fn.__name__.replace("_mc_", "", 1)] = fn
    return fn


def scenario_names() -> List[str]:
    return sorted(MCHECK_SCENARIOS)


# ---------------------------------------------------------------------------
# plumbing
def _controlled_stack(controller, **kwargs):
    """Build a stack whose Simulation defers tie-breaks to ``controller``
    and whose Shared accesses feed the controller's footprints."""
    from repro.chaos.scenarios import build_stack

    with controlled_ties(controller):
        ctx = build_stack(**kwargs)
    tsan = SimTSan(ctx.sim).install()
    controller.attach(tsan)
    return ctx, tsan


def _guarded(errors: List[str], tag: str, gen) -> Generator:
    """Run a client generator, demoting protocol-legal failures
    (retry exhaustion, raced stages, quota refusals) to payload notes."""
    try:
        result = yield from gen
        return result
    except Exception as err:
        errors.append(f"{tag}: {type(err).__name__}: {err}")
        return None


def _residual_charges(ctx) -> List[str]:
    """Quota charges surviving the settle = leaked accounting."""
    out: List[str] = []
    with untracked(ctx.sim):
        for daemon in ctx.deployment.live_daemons():
            registry = daemon.provider.tenants
            for tenant in registry.tenants():
                blocks, nbytes = registry.usage(tenant)
                if blocks:
                    out.append(
                        f"{daemon.name}: tenant {tenant!r} still charged "
                        f"{blocks} block(s) / {nbytes} B after the settle"
                    )
    return out


def _charge_accounting(ctx) -> List[str]:
    """Charged blocks must equal primary staged blocks, per provider
    (replicas are deliberately uncharged). Run only at settled points
    — no stage/deactivate in flight."""
    out: List[str] = []
    with untracked(ctx.sim):
        for daemon in ctx.deployment.live_daemons():
            provider = daemon.provider
            staged = sum(
                len(blocks)
                for pipeline in provider.pipelines.values()
                for blocks in pipeline.staged.values()
            )
            registry = provider.tenants
            charged = sum(registry.usage(t)[0] for t in registry.tenants())
            if staged != charged:
                out.append(
                    f"{daemon.name}: charge accounting drift — "
                    f"{charged} block(s) charged but {staged} staged"
                )
    return out


def _mc_finish(
    ctx,
    tsan,
    controller,
    errors: List[str],
    payload: Dict[str, Any],
    extra_violations: Optional[List[str]] = None,
    races_fatal: bool = False,
    settle: float = 4.0,
) -> McheckOutcome:
    controller.disarm()
    sim = ctx.sim
    sim.run(until=sim.now + settle)
    try:
        run_until(sim, ctx.deployment.converged, max_time=120)
    except TimeoutError:
        pass  # final_check records it
    ctx.monitor.final_check()
    ctx.monitor.detach()
    violations = list(ctx.monitor.violations)
    violations.extend(extra_violations or ())
    if races_fatal:
        violations.extend(f"simtsan: {r.describe()}" for r in tsan.races)
    tsan.uninstall()
    payload = dict(payload)
    payload["errors"] = sorted(errors)
    payload["races"] = len(tsan.races)
    return McheckOutcome(
        violations=violations, digest=sim.trace.digest(), payload=payload
    )


def _all_inactive(ctx) -> bool:
    with untracked(ctx.sim):
        return all(
            not d.provider._active for d in ctx.deployment.live_daemons()
        )


def _spawn_all_done(sim, tasks) -> Callable[[], bool]:
    return lambda: all(t.finished for t in tasks)


# ---------------------------------------------------------------------------
# scenarios
@mcheck_scenario
def _mc_2pc_activation(seed: int, controller) -> McheckOutcome:
    """Deactivate's flush window vs. a successor activation's stages.

    Iteration 1 is activated and staged; a deactivate lands (epoch
    popped everywhere) and suspends in the pipeline flush. While it is
    suspended, the client re-activates the same iteration and stages
    fresh blocks paced across the flush's end. The stale handler's
    resume must *not* drop the new epoch's replicas or quota charges —
    the provider's post-flush epoch guard. Without it, the new epoch's
    charges evaporate and the very next stage span fails the
    staged-implies-charged audit.
    """
    from repro.chaos.scenarios import LIGHT_BLOCK

    ctx, tsan = _controlled_stack(
        controller,
        seed=seed,
        n_servers=2,
        library=FLUSH,
        config={"flush_bytes_per_second": 65536.0},
    )
    sim, h = ctx.sim, ctx.handle
    errors: List[str] = []

    def _setup():
        yield from h.activate(1)
        for b in range(2):
            yield from h.stage(1, b, LIGHT_BLOCK)

    drive(sim, _setup(), max_time=120)

    # Send the deactivate as raw per-server RPCs (the shape of a retry
    # duplicate: same wire traffic, no handle-state side effects — a
    # handle-level deactivate would clear ``frozen_view`` under the
    # re-activation when its broadcast completed). Wait for the epoch
    # pops to land everywhere: from here to each flush's end the
    # handlers are suspended mid-deactivate.
    def _one_deactivate(server):
        return ctx.margo.provider_call(
            server,
            "colza",
            "deactivate",
            {"pipeline": h.name, "iteration": 1},
            nbytes=256,
        )

    view = sorted(h.frozen_view)
    deactivators = [
        sim.spawn(
            _guarded(errors, f"late-deactivate-{i}", _one_deactivate(server)),
            name=f"mc-late-deactivate-{i}",
        )
        for i, server in enumerate(view)
    ]
    run_until(sim, lambda: _all_inactive(ctx), max_time=60)

    controller.arm()

    def _reactivate():
        view = yield from _guarded(errors, "reactivate", h.activate(1))
        if view is None:
            return
        for b in range(4):
            yield from _guarded(errors, f"stage-{b}", h.stage(1, b, LIGHT_BLOCK))
            yield sim.timeout(0.9)
        yield from _guarded(errors, "execute", h.execute(1))

    reactivator = sim.spawn(_reactivate(), name="mc-reactivate")
    run_until(
        sim, _spawn_all_done(sim, deactivators + [reactivator]), max_time=300
    )
    controller.disarm()

    drive(sim, _guarded(errors, "final-deactivate", h.deactivate(1)), max_time=120)
    extra = _residual_charges(ctx) + _charge_accounting(ctx)
    return _mc_finish(ctx, tsan, controller, errors, {"scenario": "2pc_activation"}, extra)


@mcheck_scenario
def _mc_abort_during_recovery(seed: int, controller) -> McheckOutcome:
    """A replica-recovery activation with a member crash mid-adoption.

    Iteration 1 is staged with replication factor 2, then aborted with
    ``keep_data`` (the retry path: epoch dies, blocks and replicas
    survive). The armed window replays the whole resilient retry —
    recover-activate, adoption, execute — while an assassin task waits
    for the first adopted block and then crashes one surviving server,
    aborting adoptions in flight. Every interleaving must preserve
    block accounting (no block loss beyond the noted failure) and leak
    no quota charges for adoption stages that aborted.
    """
    from repro.chaos.scenarios import LIGHT_BLOCK

    ctx, tsan = _controlled_stack(
        controller,
        seed=seed,
        n_servers=3,
        library=FLUSH,
        config={
            "flush_bytes_per_second": 262144.0,
            "replication_factor": 2,
        },
    )
    sim, h = ctx.sim, ctx.handle
    errors: List[str] = []

    def _setup():
        yield from h.activate(1)
        for b in range(3):
            yield from h.stage(1, b, LIGHT_BLOCK)
        yield from h.abort(1, keep_data=True)

    drive(sim, _setup(), max_time=120)

    controller.arm()
    blocks = [(b, LIGHT_BLOCK) for b in range(3)]
    recoverer = sim.spawn(
        _guarded(
            errors,
            "resilient-recovery",
            h.run_resilient_iteration(1, blocks, max_attempts=6),
        ),
        name="mc-recoverer",
    )

    def _assassin():
        def adopted():
            with untracked(sim):
                return sim.trace.counters.get("colza.block_recovered", 0) >= 1

        deadline = sim.now + 60.0
        while not adopted() and sim.now < deadline and not recoverer.finished:
            yield sim.timeout(0.05)
        with untracked(sim):
            live = ctx.deployment.live_daemons()
        if recoverer.finished or len(live) < 2:
            return
        victim = live[-1]
        ctx.monitor.note_failure(victim.name)
        victim.crash()

    assassin = sim.spawn(_assassin(), name="mc-assassin")
    run_until(sim, _spawn_all_done(sim, [recoverer, assassin]), max_time=600)
    controller.disarm()

    drive(sim, _guarded(errors, "final-abort", h.abort(1)), max_time=120)
    extra = _residual_charges(ctx) + _charge_accounting(ctx)
    return _mc_finish(
        ctx, tsan, controller, errors,
        {"scenario": "abort_during_recovery"}, extra, settle=8.0,
    )


@mcheck_scenario
def _mc_owner_crash_adoption(seed: int, controller) -> McheckOutcome:
    """Crash a block owner, then explore the adoption interleavings.

    With the owner already dead and the group reconverged (all under
    FIFO), the armed window is the recovery itself: abort-for-retry,
    recover-activate with the expected block set, replica adoption from
    whichever survivors hold copies, then execute and a clean
    deactivate. Which survivor adopts each orphaned block is exactly a
    same-timestamp delivery order; every choice must end with each
    block singly owned and nothing re-staged by the client.
    """
    from repro.chaos.scenarios import LIGHT_BLOCK

    ctx, tsan = _controlled_stack(
        controller,
        seed=seed,
        n_servers=3,
        library=FLUSH,
        config={
            "flush_bytes_per_second": 262144.0,
            "replication_factor": 2,
        },
    )
    sim, h = ctx.sim, ctx.handle
    errors: List[str] = []

    def _setup():
        yield from h.activate(1)
        for b in range(3):
            yield from h.stage(1, b, LIGHT_BLOCK)
        yield from h.abort(1, keep_data=True)

    drive(sim, _setup(), max_time=120)

    # Find and kill the owner of block 0 (primary copy), FIFO-side.
    victim = None
    with untracked(sim):
        for daemon in ctx.deployment.live_daemons():
            for pipeline in daemon.provider.pipelines.values():
                if any(b.block_id == 0 for b in pipeline.blocks(1)):
                    victim = daemon
                    break
            if victim is not None:
                break
    if victim is None:  # pragma: no cover - placement always assigns 0
        raise RuntimeError("no owner found for block 0")
    ctx.monitor.note_failure(victim.name)
    victim.crash()
    run_until(sim, ctx.deployment.converged, max_time=120)

    controller.arm()

    def _recover():
        view = yield from _guarded(
            errors, "recover-activate",
            h.activate(1, recover=True, expected=[0, 1, 2]),
        )
        if view is None:
            return
        report = h.last_recovery or {}
        for block_id in report.get("missing", ()):
            yield from _guarded(
                errors, f"restage-{block_id}", h.stage(1, block_id, LIGHT_BLOCK)
            )
        yield from _guarded(errors, "execute", h.execute(1))
        yield from _guarded(errors, "deactivate", h.deactivate(1))

    recoverer = sim.spawn(_recover(), name="mc-recoverer")
    run_until(sim, _spawn_all_done(sim, [recoverer]), max_time=600)
    controller.disarm()

    with untracked(sim):
        recovered = sim.trace.counters.get("colza.block_recovered", 0)
    drive(sim, _guarded(errors, "final-abort", h.abort(1)), max_time=120)
    extra = _residual_charges(ctx) + _charge_accounting(ctx)
    payload = {"scenario": "owner_crash_adoption", "blocks_recovered": recovered}
    return _mc_finish(ctx, tsan, controller, errors, payload, extra, settle=8.0)


@mcheck_scenario
def _mc_quota_backpressure(seed: int, controller) -> McheckOutcome:
    """A charged stage racing a keep-data abort must not leak its charge.

    One server, quota of three blocks. Two blocks staged; the armed
    window races a third stage (charged at admission, then suspended in
    the RDMA pull) against a keep-data abort of the epoch. Whichever
    handler wins the delivery tie, the stage must end uncharged — it
    either never reserves (epoch already dead) or aborts after the pull
    and withdraws its reservation. A leaked charge is invisible to the
    per-span audits (the block was never staged), so the scenario
    detects it the way a tenant would: after a recover-activate, a
    probe stage of a fourth block must still fit the quota instead of
    backpressuring to the patience deadline, and the final accounting
    audit must balance charges against staged blocks.
    """
    from repro.chaos.scenarios import LIGHT_BLOCK

    ctx, tsan = _controlled_stack(
        controller,
        seed=seed,
        n_servers=1,
        tenants=("alpha",),
        library=FLUSH,
        config={"flush_bytes_per_second": 1048576.0},
        tenancy=TenancyConfig(
            default_quota=TenantQuota(max_blocks=3), quota_wait=1.5
        ),
    )
    sim = ctx.sim
    h = ctx.handles["alpha"]
    errors: List[str] = []

    def _setup():
        yield from h.activate(1)
        for b in range(2):
            yield from h.stage(1, b, LIGHT_BLOCK)

    drive(sim, _setup(), max_time=120)

    controller.arm()
    aborter = sim.spawn(
        _guarded(errors, "abort", h.abort(1, keep_data=True)), name="mc-abort"
    )
    stager = sim.spawn(
        _guarded(errors, "raced-stage", h.stage(1, 2, LIGHT_BLOCK)),
        name="mc-raced-stage",
    )
    run_until(sim, _spawn_all_done(sim, [aborter, stager]), max_time=120)

    # Recover the epoch (charges for blocks 0..1 legitimately survive
    # the keep-data abort) and probe: block 3 is the third charge and
    # must fit a three-block quota — unless a phantom charge leaked.
    extra: List[str] = []

    def _probe():
        view = yield from _guarded(
            errors, "recover-activate",
            h.activate(1, recover=True, expected=[0, 1]),
        )
        if view is None:
            extra.append("quota probe: recover-activate failed outright")
            return
        try:
            yield from h.stage(1, 3, LIGHT_BLOCK)
        except Exception as err:
            extra.append(
                "quota probe: in-quota stage was refused after the raced "
                f"abort ({type(err).__name__}: {err}) — a leaked charge is "
                "occupying the freed slot"
            )

    prober = sim.spawn(_probe(), name="mc-probe")
    run_until(sim, _spawn_all_done(sim, [prober]), max_time=120)
    controller.disarm()

    extra.extend(_charge_accounting(ctx))
    drive(sim, _guarded(errors, "final-deactivate", h.deactivate(1)), max_time=120)
    extra.extend(_residual_charges(ctx))
    return _mc_finish(
        ctx, tsan, controller, errors, {"scenario": "quota_backpressure"}, extra
    )


@mcheck_scenario
def _mc_tenant_churn(seed: int, controller) -> McheckOutcome:
    """Tenant admission racing departure under a full tenant table.

    Two admitted tenants fill ``max_tenants=2``; the armed window runs
    beta's detach, gamma's attach (which needs beta's slot), and an
    alpha iteration all concurrently. Delivery order decides whether
    gamma is admitted — both outcomes are legal — but every schedule
    must keep admission all-or-nothing (once settled, every server
    agrees whether gamma exists), leave alpha's iteration untouched,
    and strand no charges for the departed tenant.
    """
    from repro.chaos.scenarios import LIGHT_BLOCK

    ctx, tsan = _controlled_stack(
        controller,
        seed=seed,
        n_servers=2,
        tenants=("alpha", "beta"),
        library=FLUSH,
        config={"flush_bytes_per_second": 1048576.0},
        tenancy=TenancyConfig(max_tenants=2),
    )
    sim = ctx.sim
    alpha = ctx.handles["alpha"]
    beta_client = ctx.handles["beta"].client
    errors: List[str] = []

    _margo, gamma_client = ctx.deployment.make_client(
        node_index=44, name="client-gamma", tenant="gamma"
    )
    drive(sim, gamma_client.connect())

    controller.arm()
    detacher = sim.spawn(
        _guarded(errors, "beta-detach", beta_client.detach()), name="mc-detach"
    )
    attacher = sim.spawn(
        _guarded(errors, "gamma-attach", gamma_client.attach()), name="mc-attach"
    )

    alpha_failures: List[str] = []

    def _alpha_iteration():
        try:
            yield from alpha.run_resilient_iteration(
                1, [(b, LIGHT_BLOCK) for b in range(2)], max_attempts=3
            )
        except Exception as err:
            alpha_failures.append(
                f"tenant isolation: alpha's iteration failed during "
                f"beta/gamma churn ({type(err).__name__}: {err})"
            )

    worker = sim.spawn(_alpha_iteration(), name="mc-alpha-worker")
    run_until(sim, _spawn_all_done(sim, [detacher, attacher, worker]), max_time=300)
    controller.disarm()

    extra: List[str] = list(alpha_failures)
    with untracked(sim):
        admitted = {
            d.name: d.provider.tenants.is_admitted("gamma")
            for d in ctx.deployment.live_daemons()
        }
        beta_left = {
            d.name: d.provider.tenants.is_admitted("beta")
            for d in ctx.deployment.live_daemons()
        }
    if len(set(admitted.values())) > 1:
        extra.append(
            f"partial admission: servers disagree whether gamma exists ({admitted})"
        )
    if len(set(beta_left.values())) > 1:
        extra.append(
            f"partial departure: servers disagree whether beta remains ({beta_left})"
        )
    extra.extend(_residual_charges(ctx))
    payload = {
        "scenario": "tenant_churn",
        "gamma_admitted": all(admitted.values()),
        "beta_remains": all(beta_left.values()),
    }
    return _mc_finish(ctx, tsan, controller, errors, payload, extra)


class _LatticeLinks:
    """A link cost model whose every message takes one tick.

    With one-tick transits, whole-tick injected delays and a zero
    backoff, every 2PC message of a window lands on a lattice of
    instants — and messages that merely fall *near* each other on a
    real fabric tie exactly, which is what hands their order to the
    explorer. ``TICK`` is a power of two, so the sums are exact.
    """

    TICK = 2.0 ** -10

    def __init__(self, model):
        self._model = model

    def p2p_time(self, nbytes: int, same_node: bool = False) -> float:
        return self.TICK

    def __getattr__(self, name):
        return getattr(self._model, name)


@mcheck_scenario
def _mc_prepare_first_no(seed: int, controller) -> McheckOutcome:
    """The first NO decides a prepare round: is the early decision safe?

    Three servers. ``d`` has (falsely, for a while) dropped ``s`` from
    its view, so it answers the first round with a NO that excuses
    ``s``; ``s`` is slow — two ticks towards it, one tick back — so its
    YES to round 1 is *late*: it reaches the client in the very instant
    round 1's ``activate_abort`` reaches ``s`` and round 2's prepare
    reaches ``a`` and ``d``. The explorer owns every order of those
    three (and of whatever else shares the later instants, ``d``'s view
    healing included). In each: ``activate`` succeeds, no commit follows
    a round that was not unanimous, the abort nobody waited for undoes
    ``s``'s late YES before the next prepare reaches it (per-pair FIFO),
    no server holds a ``_prepared`` entry once ``activate`` has
    returned, every member froze the client's view, and no vote or ack
    task is left waiting (the monitor's fan-out check).
    """
    from repro.chaos.scenarios import CLIENT, LIGHT_BLOCK
    from repro.na.fabric import LinkAction

    ctx, tsan = _controlled_stack(
        controller,
        seed=seed,
        n_servers=3,
        library=FLUSH,
        config={"flush_bytes_per_second": 1048576.0},
    )
    sim, h = ctx.sim, ctx.handle
    tick = _LatticeLinks.TICK
    errors: List[str] = []
    extra: List[str] = []
    a, d, s = sorted(ctx.deployment.live_daemons(), key=lambda x: x.address)
    for margo in [ctx.margo] + [x.margo for x in (a, d, s)]:
        margo.hg.endpoint.model = _LatticeLinks(margo.hg.endpoint.model)
    h.ACTIVATE_BACKOFF = (0.0, 0.0)
    client_address = ctx.margo.address

    #: (source, destination) -> arrival instants of the window's messages.
    arrivals: Dict[Any, List[float]] = {}

    def slow_links(source, dest, _size, _tag):
        delay = 0.0
        if source == client_address and dest == s.address:
            delay = 2 * tick
        elif source == s.address and dest == client_address:
            delay = tick
        if client_address in (source, dest):
            arrivals.setdefault((source, dest), []).append(sim.now + tick + delay)
        return LinkAction(delay=delay) if delay else None

    sim.add_interceptor("na.send", slow_links)
    d.provider.view = lambda: [a.address, d.address]

    #: (proposed, votes, deciding NO) per prepare round, as the client saw it.
    rounds: List[Any] = []
    real_prepare = h._prepare

    def logged_prepare(iteration, proposed, gone=()):
        votes, dissent = yield from real_prepare(iteration, proposed, gone)
        rounds.append((proposed, list(votes), dissent))
        return votes, dissent

    h._prepare = logged_prepare

    def _heal():
        yield sim.timeout(6 * tick)
        del d.provider.view
        # Round 1's abort was not awaited from ``s`` but it was sent: it
        # has undone the late YES before any later prepare can arrive.
        yield sim.timeout(tick)
        with untracked(sim):
            stale = sorted(s.provider._prepared)
        if stale:
            extra.append(f"the excused member still holds {stale}: its abort never came")

    def _window():
        view = yield from _guarded(errors, "activate", h.activate(1))
        with untracked(sim):
            held = {
                x.name: sorted(x.provider._prepared)
                for x in ctx.deployment.live_daemons()
                if x.provider._prepared
            }
            frozen = {
                x.name: x.provider.pipelines[h.name].current_view
                for x in ctx.deployment.live_daemons()
                if (h.name, 1) in x.provider._active
            }
        if view is None:
            # Nothing in this window makes agreement impossible.
            extra.append(f"activate failed, {sorted(frozen)} committed: {errors}")
            return
        if held:
            extra.append(f"_prepared entries survive a returned activate: {held}")
        last = rounds[-1]
        if last[2] is not None or len(last[1]) != len(last[0]) or any(
            v["vote"] != "yes" for v in last[1]
        ):
            extra.append(f"commit after a round that was not unanimous: {last}")
        if set(frozen) != {x.name for x in (a, d, s)} or any(
            v != tuple(view) for v in frozen.values()
        ):
            extra.append(f"members froze {frozen}, the client {view}")
        yield from _guarded(errors, "stage", h.stage(1, 0, LIGHT_BLOCK))
        yield from _guarded(errors, "execute", h.execute(1))
        yield from _guarded(errors, "deactivate", h.deactivate(1))

    controller.arm()
    healer = sim.spawn(_heal(), name="mc-heal")
    window = sim.spawn(_window(), name="mc-first-no")
    run_until(sim, _spawn_all_done(sim, [healer, window]), max_time=300)
    controller.disarm()
    sim.remove_interceptor("na.send", slow_links)

    if not any(r[2] is not None and len(r[1]) < len(r[0]) for r in rounds):
        extra.append("no round was decided before every vote was in")
    # The window is only worth exploring while the three messages tie.
    racing = {
        "late YES": arrivals[s.address, client_address][0],
        "round 1's abort at s": arrivals[client_address, s.address][1],
        "round 2's prepare at a": arrivals[client_address, a.address][2],
    }
    if len(set(racing.values())) != 1:
        extra.append(f"the window no longer races: {racing}")
    extra.extend(_residual_charges(ctx))
    payload = {"scenario": "prepare_first_no", "rounds": len(rounds)}
    return _mc_finish(ctx, tsan, controller, errors, payload, extra)


@mcheck_scenario
def _mc_prepare_relay(seed: int, controller) -> McheckOutcome:
    """A tombstone relayed by a prepare vs SWIM's gossip of it vs an abort.

    Three servers ``a``, ``b``, ``x`` shared by two tenants; alpha's
    iteration 1 is frozen on all three when ``x`` crashes. ``a`` holds
    ``x``'s DEAD record (its suspicion timer fired), ``b`` has not heard.
    On a one-tick lattice, three messages then reach ``b`` in one
    instant: beta's prepare relaying the record (R3), ``a``'s SWIM probe
    gossiping the same record, and alpha's ``abort()`` of the frozen
    iteration. The explorer owns their order (and of whatever shares the
    later instants: alpha's retry relays what the abort's acks carried).
    In each: both activates succeed, every member freezes the client's
    view, no frozen view holds a member a live agent has a terminal
    record for, and each agent's observer fires at most once per member.
    """
    from repro.chaos.scenarios import LIGHT_BLOCK
    from repro.ssg import Status, Update

    ctx, tsan = _controlled_stack(
        controller,
        seed=seed,
        n_servers=3,
        tenants=("alpha", "beta"),
        library=FLUSH,
        config={"flush_bytes_per_second": 1048576.0},
    )
    sim = ctx.sim
    alpha, beta = ctx.handles["alpha"], ctx.handles["beta"]
    tick = _LatticeLinks.TICK
    errors: List[str] = []
    extra: List[str] = []
    a, b, x = sorted(ctx.deployment.live_daemons(), key=lambda d: d.address)
    for margo in [h.margo for h in (alpha, beta)] + [d.margo for d in (a, b, x)]:
        margo.hg.endpoint.model = _LatticeLinks(margo.hg.endpoint.model)
    for h in (alpha, beta):
        h.ACTIVATE_BACKOFF = (0.0, 0.0)
    drive(sim, alpha.activate(1), max_time=120)

    #: server name -> (event, member) as its agent's observers saw them.
    heard: Dict[str, List[Any]] = {d.name: [] for d in (a, b)}
    for d in (a, b):
        d.provider.agent.add_observer(
            lambda event, member, log=heard[d.name]: log.append((event, member))
        )
    #: which message told ``b``, and whether alpha's epoch was still
    #: live there (then ``b`` aborts it on the death too).
    told: Dict[str, Any] = {}

    def _b_told(_event, _member):
        with untracked(sim):
            live = (alpha.name, 1) in b.provider._active
        told.setdefault("b_told_by", sim.current_task.name.rsplit(".", 1)[-1])
        told.setdefault("b_frozen_when_told", live)

    b.provider.agent.add_observer(_b_told)
    ctx.monitor.note_failure(x.name)
    x.crash()
    # a's suspicion timer fires: observers run, the record is queued for gossip.
    record = Update(Status.DEAD, x.address, a.provider.agent.view.incarnation_of(x.address))
    a.provider.agent.apply_tombstones([record])

    #: (source, destination) -> arrival instants of the window's messages.
    arrivals: Dict[Any, List[float]] = {}

    def lattice_arrivals(source, dest, _size, _tag):
        arrivals.setdefault((source, dest), []).append(sim.now + tick)
        return None

    sim.add_interceptor("na.send", lattice_arrivals)

    def _audit(tenant: str, handle, view) -> None:
        with untracked(sim):
            live = ctx.deployment.live_daemons()
            frozen = {
                d.name: d.provider.pipelines[handle.name].current_view
                for d in live
                if (handle.name, 1) in d.provider._active
            }
            buried = {
                u.member for d in live for v in frozen.values()
                for u in d.provider.agent.tombstones(v)
            }
        if view is None:
            extra.append(f"{tenant}: activate failed: {errors}")
            return
        if set(frozen) != {d.name for d in live if d.address in view} or any(
            v != tuple(view) for v in frozen.values()
        ):
            extra.append(f"{tenant}: members froze {frozen}, the client {view}")
        if buried:
            extra.append(f"{tenant}: a frozen view holds {sorted(buried)}, buried by a live agent")

    def _finish_iteration(handle) -> Generator:
        yield from _guarded(errors, "stage", handle.stage(1, 0, LIGHT_BLOCK))
        yield from _guarded(errors, "execute", handle.execute(1))
        yield from _guarded(errors, "deactivate", handle.deactivate(1))

    def _alpha():
        acks = yield from _guarded(errors, "abort", alpha.abort(1))
        gone = [u for ack in acks or () if isinstance(ack, dict) for u in ack["gone"]]
        view = yield from _guarded(errors, "alpha-activate", alpha.activate(1, gone=gone))
        _audit("alpha", alpha, view)
        if view is not None:
            yield from _finish_iteration(alpha)

    def _beta():
        view = yield from _guarded(errors, "beta-activate", beta.activate(1, gone=[record]))
        _audit("beta", beta, view)
        if view is not None:
            yield from _finish_iteration(beta)

    controller.arm()
    gossip = sim.spawn(a.provider.agent._probe(b.address), name="mc-gossip")
    tasks = [sim.spawn(_alpha(), name="mc-alpha"), sim.spawn(_beta(), name="mc-beta"), gossip]
    run_until(sim, _spawn_all_done(sim, tasks), max_time=300)
    controller.disarm()
    sim.remove_interceptor("na.send", lattice_arrivals)
    sim.run(until=sim.now + 2 * alpha.CONTROL_TIMEOUT)

    for name, log in heard.items():
        repeated = sorted({str(m) for event, m in log if log.count((event, m)) > 1})
        if repeated:
            extra.append(f"{name}'s observers fired twice for {repeated}: {log}")
    if heard[b.name].count(("died", x.address)) != 1:
        extra.append(f"{b.name} never heard that {x.name} died: {heard[b.name]}")
    # The window is only worth exploring while the three messages tie.
    racing = {
        "the relayed record": arrivals[beta.margo.address, b.address][0],
        "the gossip": arrivals[a.address, b.address][0],
        "the abort": arrivals[alpha.margo.address, b.address][0],
    }
    if len(set(racing.values())) != 1:
        extra.append(f"the window no longer races: {racing}")
    extra.extend(_residual_charges(ctx))
    with untracked(sim):
        attempts = {
            str(span.tags["pipeline"]): span.tags["attempts"]
            for span in sim.trace.find("colza.activate", iteration=1)
            if "relayed" in span.tags
        }
    payload = {"scenario": "prepare_relay", "attempts": attempts, **told}
    return _mc_finish(ctx, tsan, controller, errors, payload, extra)


# ---------------------------------------------------------------------------
# whole-run scenarios: armed from the first event, so a random walk
# reorders boot, membership and the workload alike. Bring-up runs before
# SimTSan is installed: those steps are unobserved, and the DFS never
# prunes across them. Guarantees are checked absolutely.
def _swim_converged(sim, agents) -> bool:
    from repro.ssg.agent import converged

    with untracked(sim):
        return converged(agents)


@mcheck_scenario
def _mc_resilient_iterations(seed: int, controller) -> McheckOutcome:
    """Boot four servers and run three resilient iterations.

    However same-instant deliveries interleave, from SWIM bring-up
    through every 2PC round: each activate commits a view of all four
    servers, the invariant monitor stays clean (blocks singly owned,
    frozen views agreed), and the group ends with its four members.
    """
    from repro.chaos.scenarios import _workload

    controller.arm()
    ctx, tsan = _controlled_stack(controller, seed=seed)
    with untracked(ctx.sim):
        servers = sorted(str(a) for a in ctx.deployment.addresses())
    errors: List[str] = []
    sizes = drive(ctx.sim, _guarded(errors, "workload", _workload(ctx)), max_time=600)
    extra: List[str] = []
    if sizes != [len(servers)] * 3:
        extra.append(f"iteration views {sizes}, not all {len(servers)} servers: {errors}")
    with untracked(ctx.sim):
        members = sorted(str(a) for a in ctx.deployment.addresses())
    if members != servers:
        extra.append(f"final membership {members}, expected {servers}")
    payload = {"scenario": "resilient_iterations", "view_sizes": sizes, "members": members}
    return _mc_finish(ctx, tsan, controller, errors, payload, extra)


@mcheck_scenario
def _mc_swim_convergence(seed: int, controller) -> McheckOutcome:
    """Five SWIM agents converge, one leaves gracefully, the other four
    reconverge: final membership must not depend on gossip tie-breaks."""
    from repro.testing import build_ssg_group

    controller.arm()
    sim = Simulation(seed=seed, controller=controller)
    _fabric, _group, agents = build_ssg_group(sim, 5)
    tsan = SimTSan(sim).install()
    controller.attach(tsan)
    violations: List[str] = []

    def _converge(phase: str) -> None:
        try:
            run_until(sim, lambda: _swim_converged(sim, agents), max_time=120)
        except TimeoutError:
            violations.append(f"{phase} convergence timed out at t={sim.now:.2f}")

    _converge("initial")
    drive(sim, agents[-1].leave(), max_time=60)
    _converge("post-leave")
    controller.disarm()
    sim.run(until=sim.now + 5.0)
    with untracked(sim):
        members = sorted(str(a) for a in agents[0].members())
    expected = sorted(str(a.address) for a in agents[:-1])
    if members != expected:
        violations.append(f"final membership {members}, expected {expected}")
    if not _swim_converged(sim, agents):
        violations.append(f"group not converged at t={sim.now:.2f}")
    tsan.uninstall()
    payload = {"scenario": "swim_convergence", "members": members, "races": len(tsan.races)}
    return McheckOutcome(violations=violations, digest=sim.trace.digest(), payload=payload)
