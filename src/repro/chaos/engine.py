"""The chaos engine: installs a :class:`FaultPlan` into a simulation.

The engine is a thin adapter between pure-data fault specs and the
kernel's interceptor points:

- ``"na.send"``     -> :class:`LinkFault` / :class:`Partition`
- ``"na.rdma"``     -> :class:`RdmaFault`
- ``"hg.handler"``  -> :class:`HangFault` (inbound freeze)
- ``"margo.compute"`` -> :class:`SlowFault`
- ``"ssg.gossip"``  -> :class:`GossipSuppression` + :class:`HangFault`
  (outbound probe suppression)

Crashes (and hang ``kill_at_end``) are scheduled as kernel tasks that
call ``daemon.crash()`` at the planned time. Every injected verdict
bumps a ``chaos.*`` tracer counter, so the trace digest covers not just
what the system did but what was done *to* it.

Probabilistic faults draw from one named rng stream
(``"chaos.engine"``); interceptors fire in deterministic simulation
order, so the draw sequence — and therefore the whole run — replays
bit-for-bit under the same seed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
from repro.na.fabric import LinkAction

__all__ = ["ChaosEngine"]


class ChaosEngine:
    """Installs/uninstalls one plan's interceptors and crash tasks."""

    def __init__(self, sim, plan: FaultPlan, deployment=None, monitor=None):
        self.sim = sim
        self.plan = plan
        self.deployment = deployment
        self.monitor = monitor
        self.rng = sim.rng.stream("chaos.engine")
        self.installed = False
        self._points: List[Tuple[str, object]] = []
        self._crash_tasks: List = []

        self._link_faults = plan.of_type(LinkFault)
        self._partitions = plan.of_type(Partition)
        self._hangs = plan.of_type(HangFault)
        self._slows = plan.of_type(SlowFault)
        self._rdma_faults = plan.of_type(RdmaFault)
        self._suppressions = plan.of_type(GossipSuppression)

    # ------------------------------------------------------------------
    def install(self) -> "ChaosEngine":
        if self.installed:
            raise RuntimeError("chaos engine already installed")
        self.installed = True
        if self.monitor is not None:
            for name in self.plan.exempt_names():
                self.monitor.note_failure(name)
        if self._link_faults or self._partitions:
            self._register("na.send", self._on_send)
        if self._rdma_faults:
            self._register("na.rdma", self._on_rdma)
        if self._hangs:
            self._register("hg.handler", self._on_handler)
        if self._slows:
            self._register("margo.compute", self._on_compute)
        if self._suppressions or self._hangs:
            self._register("ssg.gossip", self._on_gossip)
        for fault in self.plan.of_type(CrashFault):
            self._schedule_kill(fault.at, fault.server)
        for fault in self._hangs:
            if fault.kill_at_end:
                self._schedule_kill(fault.end, fault.server)
        return self

    def uninstall(self) -> None:
        for point, fn in self._points:
            self.sim.remove_interceptor(point, fn)
        self._points.clear()
        for task in self._crash_tasks:
            if not task.finished:
                task.kill()
        self._crash_tasks.clear()
        self.installed = False

    def _register(self, point: str, fn) -> None:
        self.sim.add_interceptor(point, fn)
        self._points.append((point, fn))

    # ------------------------------------------------------------------
    def _active(self, fault) -> bool:
        return fault.start <= self.sim.now < fault.end

    def _schedule_kill(self, at: float, server: str) -> None:
        self._crash_tasks.append(
            self.sim.spawn_at(at, self._kill(server), name=f"chaos.crash.{server}")
        )

    def _kill(self, server: str):
        yield self.sim.timeout(0)
        daemon = self._daemon(server)
        if daemon is None or not daemon.running:
            return
        if self.monitor is not None:
            self.monitor.note_failure(server)
        self.sim.trace.add("chaos.crash")
        daemon.crash()
        if self.monitor is not None:
            self.monitor.check_crash(daemon)

    def _daemon(self, server: str):
        if self.deployment is None:
            return None
        for daemon in self.deployment.daemons:
            if daemon.name == server:
                return daemon
        return None

    # ------------------------------------------------------------------
    # interceptor callbacks
    def _on_send(self, src, dest, size, tag) -> Optional[LinkAction]:
        src_name, dst_name = name_of(src), name_of(dest)
        now = self.sim.now
        for part in self._partitions:
            if part.start <= now < part.end and part.severs(src_name, dst_name):
                self.sim.trace.add("chaos.partition_drop")
                return LinkAction(drop=True)
        drop = duplicate = False
        delay = 0.0
        matched = False
        for fault in self._link_faults:
            if not (fault.start <= now < fault.end) or not fault.matches(src_name, dst_name):
                continue
            matched = True
            if fault.drop_p > 0 and self.rng.random() < fault.drop_p:
                drop = True
            if fault.dup_p > 0 and self.rng.random() < fault.dup_p:
                duplicate = True
            if fault.delay > 0:
                delay += float(self.rng.uniform(0.0, fault.delay))
        if not matched:
            return None
        if drop:
            self.sim.trace.add("chaos.drop")
        if duplicate:
            self.sim.trace.add("chaos.dup")
        if delay > 0:
            self.sim.trace.add("chaos.delay")
        if drop or duplicate or delay > 0:
            return LinkAction(drop=drop, delay=delay, duplicate=duplicate)
        return None

    def _on_rdma(self, initiator, owner, nbytes) -> Optional[float]:
        factor = 1.0
        names = (name_of(initiator), name_of(owner))
        for fault in self._rdma_faults:
            if self._active(fault) and (
                fault.initiator is None or fault.initiator in names
            ):
                factor *= fault.factor
        if factor != 1.0:
            self.sim.trace.add("chaos.rdma_slow")
            return factor
        return None

    def _on_handler(self, instance_name: str, rpc_name: str) -> Optional[str]:
        name = name_of(instance_name)
        for fault in self._hangs:
            if self._active(fault) and fault.server == name:
                self.sim.trace.add("chaos.hang")
                return "hang"
        return None

    def _on_compute(self, instance_name: str) -> Optional[float]:
        name = name_of(instance_name)
        factor = 1.0
        for fault in self._slows:
            if self._active(fault) and fault.server == name:
                factor *= fault.factor
        if factor != 1.0:
            self.sim.trace.add("chaos.slow")
            return factor
        return None

    def _on_gossip(self, prober, target) -> Optional[bool]:
        prober_name, target_name = name_of(prober), name_of(target)
        for fault in self._hangs:
            # A hung process cannot probe out either.
            if self._active(fault) and fault.server == prober_name:
                self.sim.trace.add("chaos.gossip_suppressed")
                return True
        for fault in self._suppressions:
            if (
                self._active(fault)
                and fault.target == target_name
                and (fault.prober is None or fault.prober == prober_name)
            ):
                self.sim.trace.add("chaos.gossip_suppressed")
                return True
        return None
