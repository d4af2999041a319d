"""The fabric: endpoint registry, message delivery, RDMA transfers.

One :class:`Fabric` instance models the whole machine's interconnect
(plus node-local shared memory). Every communicating library instance
registers an :class:`Endpoint` with its own cost model; transit times
then depend on (library, size, same-node?).

Semantics:

- ``send`` completes when the message lands in the destination mailbox
  (one-way latency) — this matches how Table I counts a send/recv op.
- Per (source, destination) delivery is FIFO: a later message never
  overtakes an earlier one, the non-overtaking guarantee collective
  algorithms rely on. The horizon is kept per *address* pair, so it
  also holds across a deregister/register of the same name.
- Sends to unknown/deregistered endpoints are silently dropped after
  the transit time (datagram semantics); detecting peer death is the
  SWIM layer's job, via timeouts.
- ``rdma_pull`` fetches the payload behind a
  :class:`~repro.na.payload.MemoryHandle` at bulk bandwidth — the
  Colza ``stage`` data path.

``send`` is the hop every RPC, SWIM probe and MoNA message takes, so it
does each thing once: one clock read, one address hash for the FIFO
horizon, no interceptor call unless one is installed, constant event
names (an event per message is cheap; formatting an address into its
name is not — source and destination are on the ``na.send`` span).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Hashable, List, Optional, Tuple

from repro.na.address import Address
from repro.na.costmodel import CostModel
from repro.na.payload import MemoryHandle, payload_nbytes
from repro.sim.kernel import Event, Simulation

__all__ = ["Endpoint", "Fabric", "LinkAction", "Message", "NAError", "ANY"]

#: Wildcard for tag/source matching in ``recv``.
ANY = None


class NAError(RuntimeError):
    """Network-abstraction protocol violation (bad registration etc.)."""


@dataclass(frozen=True)
class LinkAction:
    """Verdict returned by a ``"na.send"`` interceptor for one message.

    ``drop``      — the message never reaches the destination mailbox
                    (datagram semantics: the sender's completion event
                    still fires after the transit time);
    ``delay``     — extra seconds added to the transit time;
    ``duplicate`` — a second copy is delivered alongside the original.
    """

    drop: bool = False
    delay: float = 0.0
    duplicate: bool = False


@dataclass
class Message:
    """A delivered message."""

    source: Address
    dest: Address
    tag: Hashable
    payload: Any
    nbytes: int
    sent_at: float
    arrived_at: float


class _Mailbox:
    """Pending messages + pending receivers with (tag, source) matching."""

    __slots__ = ("messages", "receivers")

    def __init__(self) -> None:
        self.messages: Deque[Message] = deque()
        # Each receiver: (tag_filter, source_filter, event)
        self.receivers: Deque[Tuple[Hashable, Optional[Address], Event]] = deque()

    # A filter of ANY matches everything; the tests are spelled
    # out in both loops — one method call per queued candidate adds up
    # when every RPC reply is a tagged receive.
    def deliver(self, msg: Message) -> None:
        msg_tag, msg_source = msg.tag, msg.source
        for i, (tag, source, ev) in enumerate(self.receivers):
            if ev._fired:
                continue
            if (tag is ANY or msg_tag == tag) and (source is ANY or msg_source == source):
                del self.receivers[i]
                ev.succeed(msg)
                return
        self.messages.append(msg)

    def receive(self, tag: Hashable, source: Optional[Address], ev: Event) -> None:
        for i, msg in enumerate(self.messages):
            if (tag is ANY or msg.tag == tag) and (source is ANY or msg.source == source):
                del self.messages[i]
                ev.succeed(msg)
                return
        self.receivers.append((tag, source, ev))

    def cancel(self, ev: Event) -> None:
        self.receivers = deque(r for r in self.receivers if r[2] is not ev)


class Endpoint:
    """A registered network endpoint owned by one library instance."""

    def __init__(
        self,
        fabric: "Fabric",
        address: Address,
        node_index: int,
        model: CostModel,
        horizon: Dict[Address, float],
    ):
        self.fabric = fabric
        self.address = address
        self.node_index = node_index
        self.model = model
        #: destination -> arrival time of the last message sent there:
        #: the fabric's FIFO record for this *address* (it outlives the
        #: endpoint, see Fabric.register).
        self._horizon = horizon
        self.alive = True
        #: True after a *crash* teardown: the owner process is gone, so
        #: any still-scheduled operation silently never completes
        #: (instead of erroring, which is reserved for API misuse).
        self.quiesced = False
        self._mailbox = _Mailbox()
        # Bulk transfers serialize on the initiator's NIC: N concurrent
        # RDMA pulls by one process queue behind each other (this is
        # what makes Colza's `stage` cost ~100 ms when hundreds of
        # clients hit a few servers at once — Fig. 9).
        from repro.sim.resources import Resource

        self._nic = Resource(fabric.sim, capacity=1, name=f"{address}.nic")

    # Convenience pass-throughs -----------------------------------------
    def send(self, dest: Address, payload: Any, tag: Hashable = 0, nbytes: Optional[int] = None) -> Event:
        return self.fabric.send(self, dest, payload, tag=tag, nbytes=nbytes)

    def recv(self, tag: Hashable = ANY, source: Optional[Address] = ANY) -> Event:
        return self.fabric.recv(self, tag=tag, source=source)

    def cancel_recv(self, ev: Event) -> None:
        self._mailbox.cancel(ev)

    def expose(self, payload: Any) -> MemoryHandle:
        """RDMA-expose a local buffer."""
        return MemoryHandle.expose(self.address, payload)

    def pending_messages(self) -> int:
        return len(self._mailbox.messages)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Endpoint {self.address} model={self.model.name}>"


class Fabric:
    """The machine-wide interconnect."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self._endpoints: Dict[Address, Endpoint] = {}
        # FIFO horizon enforcing non-overtaking delivery per (source,
        # destination): ``horizon[src][dest]``. Keyed by *address*, not
        # by endpoint, so it survives a deregister/register of the same
        # name (a restarted daemon still queues behind what its
        # predecessor put on the wire); each endpoint is handed its
        # inner dict, so a send hashes one address, not a pair twice.
        self._fifo_horizon: Dict[Address, Dict[Address, float]] = {}
        #: Counters: total messages / bytes moved (for reports).
        self.messages_sent = 0
        self.bytes_sent = 0
        self._metrics = sim.metrics.scope("na")
        self._m_messages = self._metrics.counter("messages_sent")
        self._m_bytes = self._metrics.counter("bytes_sent")
        self._m_dropped = self._metrics.counter("messages_dropped")
        self._m_transit = self._metrics.histogram("send_transit_seconds")
        self._m_rdma = self._metrics.histogram("rdma_seconds")

    # ------------------------------------------------------------------
    # registration
    def register(self, name: str, node_index: int, model: CostModel) -> Endpoint:
        """Create an endpoint ``na+sim://nid<idx>/<name>``."""
        address = Address.make(f"nid{node_index:05d}", name)
        if address in self._endpoints:
            raise NAError(f"address {address} already registered")
        ep = Endpoint(
            self, address, node_index, model, self._fifo_horizon.setdefault(address, {})
        )
        self._endpoints[address] = ep
        return ep

    def deregister(self, endpoint: Endpoint) -> None:
        """Remove an endpoint; in-flight messages to it are dropped."""
        endpoint.alive = False
        self._endpoints.pop(endpoint.address, None)

    def quiesce(self, endpoint: Endpoint) -> None:
        """Crash teardown: deregister, and let any operation the dead
        process's zombie tasks still issue hang forever silently."""
        self.deregister(endpoint)
        endpoint.quiesced = True

    def lookup(self, address: Address) -> Optional[Endpoint]:
        return self._endpoints.get(address)

    def is_alive(self, address: Address) -> bool:
        return address in self._endpoints

    # ------------------------------------------------------------------
    # messaging
    def send(
        self,
        src: Endpoint,
        dest: Address,
        payload: Any,
        tag: Hashable = 0,
        nbytes: Optional[int] = None,
    ) -> Event:
        """Send; the returned event fires at delivery time.

        ``nbytes`` overrides the computed payload size (used when a
        small Python object stands in for a larger wire format).
        """
        sim = self.sim
        if not src.alive:
            if src.quiesced:
                return Event(sim, "na.send-from-dead")  # never fires
            raise NAError(f"send from deregistered endpoint {src.address}")
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        source = src.address
        # Fault injection point: consulted before transit-cost charging
        # so injected delays shift the arrival (and the FIFO horizon)
        # exactly as slow links would. Un-instrumented runs pay the one
        # dict probe and no call.
        action: Optional[LinkAction] = None
        if "na.send" in sim._interceptors:
            action = sim.intercept("na.send", source, dest, size, tag)
        dest_ep = self._endpoints.get(dest)
        same_node = dest_ep is not None and dest_ep.node_index == src.node_index
        transit = src.model.p2p_time(size, same_node=same_node)
        if action is not None and action.delay > 0:
            transit += action.delay

        now = sim._now
        arrive = now + transit
        horizon = src._horizon
        earliest = horizon.get(dest)
        if earliest is not None and earliest > arrive:
            arrive = earliest
        horizon[dest] = arrive

        self.messages_sent += 1
        self.bytes_sent += size
        self._m_messages.inc()
        self._m_bytes.inc(size)
        self._m_transit.observe(arrive - now)

        # Event names are constants: formatting an address into a
        # per-message name would cost more than the event it labels,
        # and the span below already records source and destination.
        done = Event(sim, "na.send")
        msg = Message(source, dest, tag, payload, size, now, arrive)

        dropped = action is not None and action.drop
        # Async span: begin here in the sender's context (so it nests
        # under the collective/RPC driving it), end at delivery time.
        span = sim.trace.begin_async("na.send", src=source, dest=dest, nbytes=size)

        def arrive_cb() -> None:
            target = self._endpoints.get(dest)
            delivered = not dropped and target is not None and target.alive
            if delivered:
                target._mailbox.deliver(msg)
            else:
                self._m_dropped.inc()
            # Dropped silently if the endpoint died in flight.
            sim.trace.end(span, dropped=not delivered)
            done.succeed(msg)

        sim._schedule_at(arrive, arrive_cb)
        if action is not None and action.duplicate and not dropped:

            def duplicate_cb() -> None:
                target = self._endpoints.get(dest)
                if target is not None and target.alive:
                    target._mailbox.deliver(msg)

            sim._schedule_at(arrive, duplicate_cb)
        return done

    def recv(self, ep: Endpoint, tag: Hashable = ANY, source: Optional[Address] = ANY) -> Event:
        """Receive the next matching message (fires with a Message)."""
        if not ep.alive:
            if ep.quiesced:
                return Event(self.sim, "na.recv-on-dead")  # never fires
            raise NAError(f"recv on deregistered endpoint {ep.address}")
        ev = Event(self.sim, "na.recv")
        ep._mailbox.receive(tag, source, ev)
        return ev

    # ------------------------------------------------------------------
    # bulk (RDMA)
    def rdma_pull(self, puller: Endpoint, handle: MemoryHandle) -> Event:
        """Fetch the remote buffer behind ``handle`` (fires with payload).

        Serialized on the puller's NIC: concurrent pulls queue.
        """
        owner_ep = self._endpoints.get(handle.owner)
        same_node = owner_ep is not None and owner_ep.node_index == puller.node_index
        cost = puller.model.rdma_time(handle.nbytes, same_node=same_node)
        factor = self.sim.intercept("na.rdma", puller.address, handle.owner, handle.nbytes)
        if factor is not None:
            cost *= float(factor)
        self.bytes_sent += handle.nbytes
        self._m_bytes.inc(handle.nbytes)
        return self._bulk_transfer(puller, cost, lambda: handle.payload, "rdma_pull", handle.nbytes)

    def rdma_push(self, pusher: Endpoint, handle: MemoryHandle, payload: Any) -> Event:
        """Write ``payload`` into the remote buffer behind ``handle``."""
        owner_ep = self._endpoints.get(handle.owner)
        same_node = owner_ep is not None and owner_ep.node_index == pusher.node_index
        size = payload_nbytes(payload)
        cost = pusher.model.rdma_time(size, same_node=same_node)
        factor = self.sim.intercept("na.rdma", pusher.address, handle.owner, size)
        if factor is not None:
            cost *= float(factor)
        self.bytes_sent += size
        self._m_bytes.inc(size)

        def apply() -> Any:
            handle.payload = payload
            return payload

        return self._bulk_transfer(pusher, cost, apply, "rdma_push", size)

    def _bulk_transfer(self, initiator: Endpoint, cost: float, finish, name: str, nbytes: int) -> Event:
        done = Event(self.sim, name=name)
        if initiator.quiesced:
            return done  # dead initiator: transfer never completes

        def body():
            # Span covers NIC queueing + the transfer itself; the body
            # task inherits the caller's span (e.g. colza.stage) as its
            # ambient parent at spawn time.
            span = self.sim.trace.begin(
                "na.rdma", op=name, initiator=initiator.address, nbytes=nbytes
            )
            yield from initiator._nic.use(cost)
            self.sim.trace.end(span)
            self._m_rdma.observe(span.end - span.start if span.recorded else cost)
            done.succeed(finish())

        self.sim.spawn(body(), name=name)
        return done
