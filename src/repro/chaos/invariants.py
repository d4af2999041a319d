"""Invariant checking for chaos runs (DESIGN §6 made executable).

The :class:`InvariantMonitor` passively observes a deployment — it
subscribes to tracer span completions and to every SSG agent's
membership callbacks — and records violations of the protocol's safety
properties:

1. **Frozen-view agreement** — when a client's 2PC activate succeeds,
   every live member of the committed view must hold exactly that view
   frozen for the (pipeline, iteration).
2. **No false deaths** — SWIM must never permanently declare a live,
   reachable member dead. Members the fault plan crashed, hung, or
   partitioned are exempt (their death verdicts reflect real failures);
   a gossip-suppression target is *not* exempt, because suppression
   windows are sized to end in refutation.
3. **Single block ownership** — after a successful execute, every
   staged block of that iteration lives on exactly one server of the
   agreed view (duplicated RPC delivery or stage retries must never
   double-stage).
4. **Convergence** — once faults stop, the membership views of all
   running daemons agree again (checked by :meth:`final_check`).
5. **No block loss** — when an iteration re-activates with recovery
   (DESIGN §11), every block the client successfully staged is either
   held by a live server or explicitly reported ``missing``; and with
   fewer failures than the replication factor (``f < K``), nothing may
   be reported missing at all.
6. **Tenant isolation** (DESIGN §13, :class:`TenantIsolation`) — on a
   multi-tenant fabric, per-tenant quotas are never exceeded on any
   daemon, every staged block is covered by a charge in its owning
   tenant's accounting, and no state (pipelines, activation epochs,
   prepared votes, replicas) ever exists under a tenant the daemon has
   not admitted — so a detach, abort, or crash recovery in one tenant
   can never strand or consume another tenant's data.
7. **Controller safety** (DESIGN §16, :class:`ControllerSafety`) — a
   watched SLO autoscaler never steers the group outside
   ``[min_servers, max_servers]``, never overlaps resizes, respects
   its cooldown, and degrades instead of raising.
8. **Execute quiescence** — once the scenario settles, no execution
   outlives the activation that started it: no ``*.coprocess`` task is
   unfinished, no ``mona.*``, ``pipeline.execute`` or ``margo.compute``
   span is open, and no daemon, crashed or not, is still inside a
   ``colza/execute`` handler; no client fan-out call
   (``colza-<method>@<server>``, ``colza-prepare``) outlives the
   broadcast or prepare round that spawned it; and a crash leaves no
   task of its process unfinished (:meth:`InvariantMonitor.check_crash`).

Violations accumulate as human-readable strings in
:attr:`InvariantMonitor.violations`.

The span names and metric counters this monitor consumes
(``colza.activate``/``colza.stage``/``colza.deactivate``/
``colza.execute``, the per-tenant quota gauges) are part of the
statically checked metric contract: flowcheck's FC010 pass (DESIGN
§14) verifies at review time that every span/metric name read here is
actually produced somewhere in the tree, so a renamed producer breaks
``make check`` instead of silently turning a chaos invariant into a
no-op.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.simtsan import untracked
from repro.chaos.faults import name_of
from repro.core.tenancy import tenant_of

__all__ = ["ControllerSafety", "InvariantMonitor", "TenantIsolation"]


class ControllerSafety:
    """Invariant 7: the SLO autoscaler never makes things worse.

    Audits a :class:`repro.core.autoscale.SloAutoscaler`'s replayable
    event log (DESIGN §16) *independently* of the controller's own
    bookkeeping — the log records what happened, this class re-derives
    what was allowed:

    - **Bounds**: every decision/resize target lies in
      ``[min_servers, max_servers]``, and the live server count never
      exceeds ``max_servers`` at any event (external crashes may dip
      the count below ``min_servers``; the controller may never *steer*
      outside the band).
    - **Single resize in flight**: ``resize_start`` events strictly
      alternate with their ``resize_done``/``resize_failed`` terminals.
    - **Cooldown respected**: between a resize terminal and the next
      ``resize_start``, at least ``cooldown_iterations`` control steps
      with fresh telemetry must pass (the event log's ``tick`` clock).
    - **Degraded instead of exception**: the event log contains no
      ``error`` events — a controller-internal exception is caught and
      recorded, and this audit turns it into a scenario failure; and a
      controller currently degraded says so on its
      ``autoscale.controller_degraded`` gauge.
    """

    def __init__(self, monitor: "InvariantMonitor", controller):
        self.monitor = monitor
        self.controller = controller

    def _flag(self, message: str) -> None:
        self.monitor.violations.append(
            f"t={self.monitor.sim.now:.2f}: [controller-safety] {message}"
        )

    def check(self) -> None:
        ctl = self.controller
        slo = ctl.slo
        in_flight = 0
        last_terminal_tick: Optional[int] = None
        for ev in ctl.events:
            if ev.kind == "error":
                self._flag(f"controller hit an internal error: {ev.detail}")
            if ev.servers > slo.max_servers:
                self._flag(
                    f"{ev.servers} live servers at {ev.kind!r} exceeds "
                    f"max_servers={slo.max_servers}"
                )
            if ev.target and not (
                slo.min_servers <= ev.target <= slo.max_servers
            ):
                self._flag(
                    f"{ev.kind} targeted {ev.target} servers, outside "
                    f"[{slo.min_servers}, {slo.max_servers}]"
                )
            if ev.kind == "resize_start":
                in_flight += 1
                if in_flight > 1:
                    self._flag("a resize started while one was in flight")
                if (
                    last_terminal_tick is not None
                    and ev.tick - last_terminal_tick < slo.cooldown_iterations
                ):
                    self._flag(
                        f"resize at tick {ev.tick} only "
                        f"{ev.tick - last_terminal_tick} fresh steps after "
                        f"the previous one (cooldown is "
                        f"{slo.cooldown_iterations})"
                    )
            elif ev.kind in ("resize_done", "resize_failed"):
                in_flight -= 1
                if in_flight < 0:
                    self._flag(f"{ev.kind} without a matching resize_start")
                last_terminal_tick = ev.tick
        if in_flight > 0:
            self._flag("a resize was left in flight at scenario end")
        gauge_value = (
            self.monitor.sim.metrics.scope("autoscale")
            .gauge("controller_degraded")
            .value
        )
        if bool(gauge_value) != bool(ctl.degraded):
            self._flag(
                f"controller_degraded gauge ({gauge_value}) disagrees with "
                f"the controller's state ({ctl.degraded})"
            )


class TenantIsolation:
    """Invariant 6: multi-tenant isolation audits (DESIGN §13).

    Every check is *instantaneously* valid — it holds at any event
    boundary, not just at quiescence — so the monitor can run them on
    arbitrary span completions without racing in-flight protocol
    operations of other tenants:

    - **Quota ceilings**: a tenant's charged blocks/bytes on a daemon
      never exceed its quota (the provider reserves before it pulls,
      so even concurrent stages cannot jointly overshoot).
    - **Charge coverage**: every primary staged block is charged to
      the tenant owning its pipeline (charges precede staging; they
      are only released when the data is actually dropped).
    - **Namespace containment**: every pipeline, activation epoch,
      prepared vote and quota charge on a daemon belongs to an
      admitted tenant, and every replica is held for a pipeline that
      exists locally — state outliving a detach (or appearing under a
      foreign namespace) is a hard failure.
    """

    def __init__(self, monitor: "InvariantMonitor"):
        self.monitor = monitor

    def _flag(self, message: str) -> None:
        self.monitor.violations.append(
            f"t={self.monitor.sim.now:.2f}: [tenant-isolation] {message}"
        )

    def check_quotas(self) -> None:
        for daemon in self.monitor.deployment.live_daemons():
            registry = daemon.provider.tenants
            for tenant in registry.tenants():
                blocks, nbytes = registry.usage(tenant)
                quota = registry.quota_for(tenant)
                if quota.max_blocks is not None and blocks > quota.max_blocks:
                    self._flag(
                        f"{daemon.name} holds {blocks} blocks for tenant "
                        f"{tenant!r}, quota is {quota.max_blocks}"
                    )
                if quota.max_bytes is not None and nbytes > quota.max_bytes:
                    self._flag(
                        f"{daemon.name} holds {nbytes} bytes for tenant "
                        f"{tenant!r}, quota is {quota.max_bytes}"
                    )

    def check_charge_coverage(self) -> None:
        for daemon in self.monitor.deployment.live_daemons():
            registry = daemon.provider.tenants
            for name, backend in sorted(daemon.provider.pipelines.items()):
                tenant = tenant_of(name)
                state = registry._states.get(tenant)
                for iteration, blocks in sorted(backend.staged.items()):
                    charged = (
                        state.charges.get((name, iteration), {})
                        if state is not None
                        else {}
                    )
                    for block in blocks:
                        if block.block_id not in charged:
                            self._flag(
                                f"{daemon.name} stages block {block.block_id} "
                                f"of {name}#{iteration} without a charge to "
                                f"tenant {tenant!r}"
                            )

    def check_containment(self) -> None:
        for daemon in self.monitor.deployment.live_daemons():
            provider = daemon.provider
            registry = provider.tenants
            if registry.configured:
                admitted = set(registry.tenants())
                for name in sorted(provider.pipelines):
                    if tenant_of(name) not in admitted:
                        self._flag(
                            f"{daemon.name} hosts pipeline {name!r} of "
                            f"unadmitted tenant {tenant_of(name)!r}"
                        )
                for key in sorted(provider._active) + sorted(provider._prepared):
                    if tenant_of(key[0]) not in admitted:
                        self._flag(
                            f"{daemon.name} holds 2PC state for {key} of "
                            f"unadmitted tenant {tenant_of(key[0])!r}"
                        )
            for key in sorted(provider.replicas._blocks):
                if key[0] not in provider.pipelines:
                    self._flag(
                        f"{daemon.name} holds replicas for {key[0]}#{key[1]} "
                        f"but no such pipeline exists there (leak past a "
                        f"destroy/detach)"
                    )

    def check_all(self) -> None:
        self.check_quotas()
        self.check_charge_coverage()
        self.check_containment()


class InvariantMonitor:
    """Attachable invariant checker for one deployment."""

    def __init__(self, sim, deployment):
        self.sim = sim
        self.deployment = deployment
        self.violations: List[str] = []
        #: Names whose death verdicts are legitimate (crashed / hung /
        #: partitioned by the plan, or failed by the scenario itself).
        self.exempt: Set[str] = set()
        self.deaths_seen: List[Tuple[float, str, str]] = []
        self._watched: Set[str] = set()
        self._attached = False
        #: Blocks the client successfully staged, per (pipeline, iter).
        self._staged: Dict[Tuple[str, int], Set[int]] = {}
        #: Frozen view of the last committed activate per (pipeline, iter).
        self._views: Dict[Tuple[str, int], Tuple[str, ...]] = {}
        #: Invariant 6: multi-tenant isolation audits (DESIGN §13).
        self.tenancy = TenantIsolation(self)
        #: Invariant 7: controller-safety audits, one per watched
        #: :class:`~repro.core.autoscale.SloAutoscaler` (DESIGN §16).
        self.controllers: List[ControllerSafety] = []

    # ------------------------------------------------------------------
    def attach(self) -> "InvariantMonitor":
        if self._attached:
            return self
        self._attached = True
        self.sim.trace.on_end.append(self._on_span)
        self.watch_all()
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        self._attached = False
        try:
            self.sim.trace.on_end.remove(self._on_span)
        except ValueError:
            pass

    def watch_all(self) -> None:
        """Subscribe to every daemon's membership callbacks (including
        ones added elastically after :meth:`attach`)."""
        for daemon in self.deployment.daemons:
            if daemon.name in self._watched:
                continue
            self._watched.add(daemon.name)
            daemon.agent.add_observer(self._observer_for(daemon))

    def watch_controller(self, controller) -> "ControllerSafety":
        """Audit an autoscaler's event log at :meth:`final_check`."""
        safety = ControllerSafety(self, controller)
        self.controllers.append(safety)
        return safety

    def note_failure(self, server: str) -> None:
        """Exempt ``server`` from the no-false-death invariant (the
        fault plan really did crash/hang/partition it)."""
        self.exempt.add(server)

    # ------------------------------------------------------------------
    # membership: invariant 2
    def _observer_for(self, daemon):
        def observe(event: str, member) -> None:
            if event != "died":
                return
            name = name_of(member)
            self.deaths_seen.append((self.sim.now, daemon.name, name))
            if name in self.exempt or daemon.name in self.exempt:
                # Either the victim really failed, or the *observer* is
                # the faulted one (a hung/partitioned daemon correctly
                # sees everyone else as unreachable).
                return
            victim = self._daemon_by_name(name)
            if victim is not None and victim.running:
                self.violations.append(
                    f"t={self.sim.now:.2f}: {daemon.name} declared live member "
                    f"{name} dead (no injected failure)"
                )

        return observe

    def _daemon_by_name(self, name: str):
        for daemon in self.deployment.daemons:
            if daemon.name == name:
                return daemon
        return None

    def _daemon_by_address(self, addr_str: str):
        return self._daemon_by_name(name_of(addr_str))

    # ------------------------------------------------------------------
    # spans: invariants 1 and 3
    def _on_span(self, span) -> None:
        self.watch_all()
        # The monitor audits protocol state without being part of the
        # protocol: its reads must not register as SimTSan accesses.
        with untracked(self.sim):
            if span.name == "colza.activate" and "view" in span.tags:
                if "recovered" in span.tags:
                    # The NoBlockLoss audit compares against the view
                    # of the *failed* activation, so it runs before
                    # this activate's view replaces it.
                    self._check_no_block_loss(span)
                self._check_frozen_agreement(span)
                self._views[(span.tags["pipeline"], span.tags["iteration"])] = tuple(
                    span.tags["view"].split(";")
                )
                self.tenancy.check_containment()
            elif span.name == "colza.stage":
                key = (span.tags.get("pipeline"), span.tags.get("iteration"))
                block_id = span.tags.get("block")
                if key[0] is not None and block_id is not None:
                    self._staged.setdefault(key, set()).add(block_id)
                self.tenancy.check_quotas()
                self.tenancy.check_charge_coverage()
            elif span.name == "colza.deactivate":
                key = (span.tags.get("pipeline"), span.tags.get("iteration"))
                self._staged.pop(key, None)
                self._views.pop(key, None)
                self.tenancy.check_containment()
            elif span.name == "colza.execute":
                self._check_block_ownership(
                    span.tags.get("pipeline"), span.tags.get("iteration")
                )

    def _check_frozen_agreement(self, span) -> None:
        view: Tuple[str, ...] = tuple(span.tags["view"].split(";"))
        pipeline = span.tags["pipeline"]
        iteration = span.tags["iteration"]
        for addr_str in view:
            daemon = self._daemon_by_address(addr_str)
            if daemon is None or not daemon.running:
                # Crashed between its commit and the span end: the next
                # activate/retry deals with it, nothing to agree on.
                continue
            provider = daemon.provider
            backend = provider.pipelines.get(pipeline)
            if backend is None or (pipeline, iteration) not in provider._active:
                self.violations.append(
                    f"t={self.sim.now:.2f}: activate({pipeline}#{iteration}) "
                    f"committed but {daemon.name} is not frozen for it"
                )
                continue
            theirs = tuple(str(a) for a in backend.current_view)
            if theirs != view:
                self.violations.append(
                    f"t={self.sim.now:.2f}: frozen-view disagreement at "
                    f"{daemon.name} for {pipeline}#{iteration}: "
                    f"{theirs} != {view}"
                )

    def _check_block_ownership(self, pipeline: Optional[str], iteration) -> None:
        if pipeline is None or iteration is None:
            return
        # Group by the frozen view each server holds: a stale server
        # stranded with an old activation (e.g. it missed an abort while
        # partitioned) is its own group, not a double-owner.
        groups: Dict[Tuple[str, ...], Dict[int, int]] = {}
        for daemon in self.deployment.live_daemons():
            provider = daemon.provider
            if (pipeline, iteration) not in provider._active:
                continue
            backend = provider.pipelines.get(pipeline)
            if backend is None:
                continue
            counts = groups.setdefault(
                tuple(str(a) for a in backend.current_view), {}
            )
            for block in backend.staged.get(iteration, []):
                counts[block.block_id] = counts.get(block.block_id, 0) + 1
        for view, counts in groups.items():
            for block_id, owners in counts.items():
                if owners != 1:
                    self.violations.append(
                        f"t={self.sim.now:.2f}: block {block_id} of "
                        f"{pipeline}#{iteration} owned by {owners} servers "
                        f"in view {view}"
                    )

    def _check_no_block_loss(self, span) -> None:
        """Invariant 5: recovery accounts for every staged block."""
        pipeline = span.tags["pipeline"]
        iteration = span.tags["iteration"]
        key = (pipeline, iteration)
        expected = set(self._staged.get(key, ()))
        if not expected:
            return
        missing = set(span.tags.get("missing_blocks") or ())
        present: Set[int] = set()
        factor = 1
        for daemon in self.deployment.live_daemons():
            backend = daemon.provider.pipelines.get(pipeline)
            if backend is None:
                continue
            factor = max(factor, backend.replication_factor)
            for block in backend.staged.get(iteration, []):
                present.add(block.block_id)
        lost = sorted(expected - present - missing)
        if lost:
            self.violations.append(
                f"t={self.sim.now:.2f}: blocks {lost} of {pipeline}#{iteration} "
                f"lost after recovery (neither held by a live server nor "
                f"reported missing)"
            )
        if missing:
            prev_view = self._views.get(key)
            if prev_view is None:
                return
            failed = [
                addr
                for addr in prev_view
                if (d := self._daemon_by_address(addr)) is None or not d.running
            ]
            if len(failed) < factor:
                self.violations.append(
                    f"t={self.sim.now:.2f}: recovery of {pipeline}#{iteration} "
                    f"reported blocks {sorted(missing)} missing although only "
                    f"f={len(failed)} of the view failed with K={factor} "
                    f"(replicas should have covered it)"
                )

    def check_crash(self, daemon) -> None:
        """Invariant 8 at a crash: no task of the process outlives it."""
        for task in self.sim.tasks:
            if task.scope == daemon.name and not task.done._fired:
                self.violations.append(
                    f"t={self.sim.now:.2f}: task {task.name} outlived the crash of {daemon.name}"
                )

    def _check_execute_quiescence(self) -> None:
        """Invariant 8: every execution ended with its activation, and
        every client fan-out call with its round."""
        for task in self.sim.tasks:
            if task.done._fired:
                continue
            if task.name.endswith((".coprocess", ".rpc.colza/execute")):
                self.violations.append(
                    f"t={self.sim.now:.2f}: task {task.name} outlived its activation"
                )
            elif task.name == "colza-prepare" or (
                task.name.startswith("colza-") and "@" in task.name
            ):
                self.violations.append(
                    f"t={self.sim.now:.2f}: client call {task.name} outlived its round"
                )
        for span in self.sim.trace.spans.open.values():
            if span.name.startswith("mona.") or span.name in ("pipeline.execute", "margo.compute"):
                self.violations.append(
                    f"t={self.sim.now:.2f}: span {span.name} {span.tags} still open"
                )

    # ------------------------------------------------------------------
    def final_check(self) -> List[str]:
        """Invariants 4, 6 and 8, run once the scenario has settled: all
        running daemons' membership views must agree, tenant isolation
        must hold and no execution may be left running."""
        with untracked(self.sim):
            self.tenancy.check_all()
            for safety in self.controllers:
                safety.check()
        self._check_execute_quiescence()
        if not self.deployment.converged():
            views = {
                d.name: [str(a) for a in d.agent.members()]
                for d in self.deployment.live_daemons()
            }
            self.violations.append(
                f"t={self.sim.now:.2f}: membership not converged after "
                f"faults ended: {views}"
            )
        return self.violations

