"""The SWIM agent: probing, dissemination, join/leave.

One :class:`SSGAgent` runs per staging-area process, attached to that
process's Margo instance as the ``"ssg"`` provider. Its protocol loop
probes one member per period, piggy-backing membership updates on every
message; joins go through any live member listed in the
:class:`GroupFile` (the paper's "connection information file").
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.argo.sync import Mutex
from repro.margo import MargoInstance, Provider
from repro.mercury import RpcError, RpcTimeout
from repro.na.address import Address
from repro.ssg.config import SwimConfig
from repro.ssg.view import MembershipView, Status, Update
from repro.telemetry.metrics import Counter

__all__ = ["GroupFile", "SSGAgent", "converged"]

#: Observer events.
JOINED, LEFT, DIED = "joined", "left", "died"


class GroupFile:
    """Shared bootstrap information (the paper's connection file).

    Live members add their address on start and remove it on leave;
    joiners read it to find a member to contact.
    """

    def __init__(self, name: str = "colza"):
        self.name = name
        self.addresses: List[Address] = []

    def add(self, address: Address) -> None:
        if address not in self.addresses:
            self.addresses.append(address)

    def remove(self, address: Address) -> None:
        try:
            self.addresses.remove(address)
        except ValueError:
            pass

    def candidates(self) -> List[Address]:
        return list(self.addresses)


class SSGAgent(Provider):
    """SWIM group membership for one process.

    Usage::

        agent = SSGAgent(margo, group_file)
        yield from agent.start()      # founder or joiner, decided by file
        ...
        yield from agent.leave()      # graceful departure
    """

    def __init__(
        self,
        margo: MargoInstance,
        group_file: GroupFile,
        config: Optional[SwimConfig] = None,
        observer: Optional[Callable[[str, Address], None]] = None,
    ):
        super().__init__(margo, "ssg")
        self.address: Address = margo.address
        self.config = config or SwimConfig()
        self.group_file = group_file
        self.view = MembershipView(margo.address, sim=margo.sim)
        self.incarnation = 0
        self.observer = observer
        #: Additional membership listeners (invariant monitors, metrics)
        #: notified after ``observer``; see :meth:`add_observer`.
        self._extra_observers: List[Callable[[str, Address], None]] = []
        #: Post-join lifecycle hooks: generators invoked (in order,
        #: inside :meth:`start`, after the protocol loop is running)
        #: with ``joined`` — True when this agent joined an existing
        #: group, False when it founded one. Services layered on SSG
        #: (e.g. the Colza provider's tenant-roster sync, DESIGN §13)
        #: use this to pull state from peers exactly once per join.
        self.on_joined: List[Callable[[bool], Generator]] = []
        self.running = False
        self._outbox: Dict[Update, int] = {}
        self._probe_order: List[Address] = []
        self._probe_idx = 0
        self._loop_ult = None
        self._rng = margo.sim.rng.stream(f"ssg.{margo.address}")
        self._metrics = margo.sim.metrics.scope("ssg")
        #: Serializes start()/leave(): both mutate running/_loop_ult and
        #: block on RPCs in between, so an overlapping pair could start
        #: the protocol loop of an agent that already disseminated LEFT.
        self._lifecycle = Mutex(margo.sim, name=f"ssg.lifecycle@{margo.address}")

        self.export("ping", self._rpc_ping)
        self.export("ping_req", self._rpc_ping_req)
        self.export("join", self._rpc_join)

    # ------------------------------------------------------------------
    def members(self) -> List[Address]:
        """Sorted addresses this agent currently believes are members."""
        return self.view.alive()

    def add_observer(self, observer: Callable[[str, Address], None]) -> None:
        """Subscribe an extra membership listener (does not displace the
        primary ``observer`` slot the Colza provider owns)."""
        self._extra_observers.append(observer)

    @cached_property
    def _m_probes(self) -> Counter:
        return self._metrics.counter("probes")

    @cached_property
    def _m_suspicions(self) -> Counter:
        return self._metrics.counter("suspicions")

    def _notify(self, event: str, member: Address) -> None:
        self._metrics.counter(f"members_{event}").inc()
        if self.observer is not None:
            self.observer(event, member)
        for extra in self._extra_observers:
            extra(event, member)

    # ------------------------------------------------------------------
    # lifecycle
    def start(self) -> Generator:
        """Join (or found) the group and start the protocol loop."""
        if self.running:
            raise RuntimeError("agent already started")
        yield self._lifecycle.acquire()
        with self._lifecycle.held():
            if self.running:
                raise RuntimeError("agent already started")
            candidates = [a for a in self.group_file.candidates() if a != self.address]
            joined = False
            for bootstrap in candidates:
                try:
                    snapshot = yield from self.margo.provider_call(
                        bootstrap,
                        "ssg",
                        "join",
                        self.address,
                        nbytes=self.config.update_wire_bytes,
                        timeout=self.config.ping_req_timeout * 4,
                    )
                except RpcError:
                    continue
                for update in snapshot:
                    self._apply_and_notify(update)
                joined = True
                break
            if candidates and not joined:
                raise RpcError(f"{self.address}: no bootstrap member reachable")
            self.group_file.add(self.address)
            self.running = True
            self._loop_ult = self.margo.spawn(
                self._protocol_loop(), name=f"ssg.loop@{self.address}"
            )
            for hook in list(self.on_joined):
                yield from hook(joined)
        return None

    def leave(self) -> Generator:
        """Gracefully leave: disseminate LEFT directly, then stop."""
        if not self.running:
            return None
        yield self._lifecycle.acquire()
        with self._lifecycle.held():
            if not self.running:
                return None
            update = Update(Status.LEFT, self.address, self.incarnation)
            peers = [a for a in self.view.alive() if a != self.address]
            self._rng.shuffle(peers)
            for peer in peers[: max(self.config.k_indirect, 1)]:
                try:
                    yield from self._send_ping(peer, extra=[update])
                except RpcError:
                    continue
            self.stop()
        return None

    def stop(self, clean_group_file: bool = True) -> None:
        """Hard-stop the protocol loop (crash or post-leave cleanup).

        A *crash* passes ``clean_group_file=False``: the dead process
        cannot scrub its bootstrap entry, so joiners/clients must
        tolerate stale addresses in the group file.
        """
        self.running = False
        if clean_group_file:
            self.group_file.remove(self.address)
        if self._loop_ult is not None and not self._loop_ult.finished:
            self._loop_ult.kill()

    # ------------------------------------------------------------------
    # protocol loop
    def _protocol_loop(self) -> Generator:
        cfg = self.config
        while self.running:
            jitter = 1.0 + cfg.jitter * (2.0 * self._rng.random() - 1.0)
            yield self.margo.sim.timeout(cfg.period * jitter)
            if not self.running:
                return
            target = self._next_probe_target()
            if target is None:
                continue
            yield from self._probe(target)

    def _next_probe_target(self) -> Optional[Address]:
        # Hot path: one call per protocol period per agent. The view's
        # sorted-alive cache makes staleness checks O(1) `contains`
        # probes; the full peer list is only materialized (and shuffled,
        # consuming RNG exactly as often as before) when a round-robin
        # pass is exhausted — SWIM's random-permutation probe order.
        view = self.view
        n = view.size()
        if n == 0 or (n == 1 and view.contains(self.address)):
            return None
        while True:
            if self._probe_idx >= len(self._probe_order):
                order = [a for a in view.alive() if a != self.address]
                if not order:
                    return None
                self._rng.shuffle(order)
                self._probe_order = order
                self._probe_idx = 0
            while self._probe_idx < len(self._probe_order):
                candidate = self._probe_order[self._probe_idx]
                self._probe_idx += 1
                if view.contains(candidate):
                    return candidate

    def _probe(self, target: Address) -> Generator:
        # SWIM §4.2: a ping to a member we hold SUSPECT carries the
        # suspicion explicitly, even after the rumor's retransmission
        # budget is spent — a reachable suspect must always get the
        # chance to refute before the suspicion timer expires.
        sim = self.margo.sim
        self._m_probes.inc()
        span = sim.trace.begin("ssg.probe", prober=self.address, target=target)
        extra = None
        if self.view.status_of(target) is Status.SUSPECT:
            extra = [Update(Status.SUSPECT, target, self.view.incarnation_of(target))]
        try:
            yield from self._send_ping(target, extra=extra)
            sim.trace.end(span, outcome="ack")
            return
        except (RpcTimeout, RpcError):
            pass
        acked = yield from self._indirect_probe(target)
        if not acked:
            self._suspect(target)
        sim.trace.end(span, outcome="indirect_ack" if acked else "suspect")

    def _send_ping(self, target: Address, extra: Optional[List[Update]] = None) -> Generator:
        # Fault injection point: suppressed gossip looks exactly like a
        # lost probe — the deadline elapses, then the timeout fires.
        sim = self.margo.sim
        if "ssg.gossip" in sim._interceptors and sim.intercept("ssg.gossip", self.address, target):
            yield sim.timeout(self.config.ping_timeout)
            raise RpcTimeout(f"ssg ping {self.address}->{target} suppressed")
        updates = self._piggyback()
        if extra:
            updates = list(extra) + updates
        wire = 16 + self.config.update_wire_bytes * len(updates)
        returned = yield from self.margo.provider_call(
            target,
            "ssg",
            "ping",
            (self.address, updates),
            nbytes=wire,
            timeout=self.config.ping_timeout,
        )
        for update in returned:
            self._apply_and_notify(update)
        return True

    def _indirect_probe(self, target: Address) -> Generator:
        proxies = [
            a for a in self.view.alive() if a not in (self.address, target)
        ]
        if not proxies:
            return False
        self._rng.shuffle(proxies)
        proxies = proxies[: self.config.k_indirect]
        attempts = [
            self.margo.sim.spawn(
                self._ping_req_one(proxy, target), name=f"pingreq@{self.address}"
            )
            for proxy in proxies
        ]
        results = yield self.margo.sim.all_of([t.join() for t in attempts])
        return any(results)

    def _ping_req_one(self, proxy: Address, target: Address) -> Generator:
        # Suppression is keyed on (prober, target): indirect probes of a
        # suppressed target fail too, so suspicion can actually form.
        sim = self.margo.sim
        if "ssg.gossip" in sim._interceptors and sim.intercept("ssg.gossip", self.address, target):
            yield sim.timeout(self.config.ping_req_timeout)
            return False
        try:
            status = yield from self.margo.provider_call(
                proxy,
                "ssg",
                "ping_req",
                (self.address, target, self._piggyback()),
                nbytes=64,
                timeout=self.config.ping_req_timeout,
            )
            return status == "ack"
        except RpcError:
            return False

    # ------------------------------------------------------------------
    # suspicion / refutation
    def _suspect(self, target: Address) -> None:
        inc = self.view.incarnation_of(target)
        update = Update(Status.SUSPECT, target, inc)
        if self._apply_and_notify(update):
            self._m_suspicions.inc()
            self._queue_update(update)
            self.margo.sim.spawn(
                self._suspicion_timer(target, inc), name=f"suspicion@{self.address}"
            )

    def _suspicion_timer(self, target: Address, incarnation: int) -> Generator:
        yield self.margo.sim.timeout(self.config.suspect_timeout)
        if not self.running:
            return
        if (
            self.view.status_of(target) is Status.SUSPECT
            and self.view.incarnation_of(target) == incarnation
        ):
            update = Update(Status.DEAD, target, incarnation)
            self._apply_and_notify(update)
            self._queue_update(update)

    # ------------------------------------------------------------------
    # dissemination
    def _queue_update(self, update: Update) -> None:
        self._outbox[update] = self.config.transmissions_for(self.view.size())

    def _piggyback(self) -> List[Update]:
        """Select updates to attach, most-fresh first; decrement budgets."""
        if not self._outbox:
            # Converged steady state: most pings carry nothing — skip
            # the sort/slice machinery entirely.
            return []
        chosen = sorted(self._outbox.items(), key=lambda kv: -kv[1])[
            : self.config.max_piggyback
        ]
        out = []
        for update, remaining in chosen:
            out.append(update)
            if remaining <= 1:
                del self._outbox[update]
            else:
                self._outbox[update] = remaining - 1
        return out

    def _apply_and_notify(self, update: Update) -> bool:
        if update.member == self.address:
            return self._handle_update_about_self(update)
        was_member = self.view.contains(update.member)
        changed = self.view.apply(update)
        if not changed:
            return False
        self._queue_update(update)
        is_member = self.view.contains(update.member)
        if not was_member and is_member:
            self._notify(JOINED, update.member)
        elif was_member and not is_member:
            self._notify(LEFT if update.status is Status.LEFT else DIED, update.member)
        return True

    def tombstones(self, members: Iterable[Address]) -> List[Update]:
        """The terminal (DEAD/LEFT) records this agent holds for any of
        ``members``, in their order: what a member tells the 2PC
        coordinator about who is gone (docs/protocols.md §2)."""
        view = self.view
        records = []
        for member in members:
            status = view.status_of(member)
            if status is not None and status.terminal:
                records.append(Update(status, member, view.incarnation_of(member)))
        return records

    def apply_tombstones(self, records: Iterable[Update]) -> None:
        """Take terminal records relayed by a peer (through the 2PC) as
        if gossip had brought them: observers fire and each news record
        is queued for dissemination. A death is final in SWIM, so a
        record from any live member may ride any message; anything
        non-terminal is ignored, and a record about this agent is
        refuted as usual."""
        for update in records:
            if update.status.terminal:
                self._apply_and_notify(update)

    def _handle_update_about_self(self, update: Update) -> bool:
        """Refute suspicion/death rumors about ourselves (SWIM §4.2)."""
        if update.status in (Status.SUSPECT, Status.DEAD) and update.incarnation >= self.incarnation:
            self.incarnation = update.incarnation + 1
            refutation = Update(Status.ALIVE, self.address, self.incarnation)
            self.view.apply(refutation)
            self._queue_update(refutation)
            return True
        return False

    # ------------------------------------------------------------------
    # RPC handlers
    def _rpc_ping(self, input: Tuple[Address, List[Update]]) -> Generator:
        sender, updates = input
        if self.running and not self.view.contains(sender):
            self._apply_and_notify(Update(Status.ALIVE, sender, 0))
        for update in updates:
            self._apply_and_notify(update)
        yield self.margo.sim.timeout(0)
        return self._piggyback()

    def _rpc_ping_req(self, input: Tuple[Address, Address, List[Update]]) -> Generator:
        origin, target, updates = input
        for update in updates:
            self._apply_and_notify(update)
        try:
            yield from self._send_ping(target)
            return "ack"
        except RpcError:
            return "nack"

    def _rpc_join(self, joiner: Address) -> Generator:
        yield self.margo.sim.timeout(0)
        self._apply_and_notify(Update(Status.ALIVE, joiner, 0))
        return self.view.snapshot_updates()


def converged(agents: List[SSGAgent]) -> bool:
    """True when every running agent's membership equals the set of
    running agents — the Fig. 4 'fully propagated' condition."""
    running = [a for a in agents if a.running]
    if not running:
        return True
    truth = sorted(a.address for a in running)
    return all(a.members() == truth for a in running)
