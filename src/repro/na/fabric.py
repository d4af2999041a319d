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
- Using a deregistered endpoint raises :class:`NAError`; a crash kills
  its process's tasks (``Simulation.kill_scope``), so none can.
- ``rdma_pull`` fetches the payload behind a
  :class:`~repro.na.payload.MemoryHandle` at bulk bandwidth — the
  Colza ``stage`` data path.

``Endpoint.send`` is the hop every RPC, SWIM probe and MoNA message
takes, so it does each thing once, with no forwarding hop below it: one
clock read; one call to the fabric's books (``Fabric._count``: the
``messages_sent`` / ``bytes_sent`` totals ``sim.metrics`` pulls rather
than being pushed a second copy, and a buffered transit-time
observation); no interceptor call unless one is installed; constant
event names (an event per message is cheap; formatting an address into
its name is not); one transit row in the trace — ``Tracer.depart`` as it
leaves, ``Tracer.arrive`` as it lands, no span handle or tag dict —
which reads back as the ``na.send`` span holding source, destination,
size and ``dropped``; and the arrival scheduled as ``Fabric._land`` with
one argument, no closure. ``Endpoint.recv`` matches the mailbox itself.
Endpoints and FIFO horizons are keyed by ``address.uri``, whose hash the
str caches, and probed with ``in``, so a message costs no
``Address.__hash__`` or ``dict.get`` call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Hashable, List, Optional, Tuple

from repro.na.address import Address
from repro.na.costmodel import CostModel
from repro.na.payload import MemoryHandle, payload_nbytes
from repro.sim.kernel import Event, Simulation

__all__ = ["Endpoint", "ExpectedTag", "Fabric", "LinkAction", "Message", "NAError", "ANY"]

#: Wildcard for tag/source matching in ``recv``.
ANY = None


class NAError(RuntimeError):
    """Network-abstraction protocol violation (bad registration etc.)."""


class ExpectedTag(str):
    """The tag of an *expected* message (NA's term; a Mercury response):
    one that finds no posted receive is late or duplicated, and dropped."""

    __slots__ = ()


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

    # A filter of ANY matches everything; the tests are spelled out
    # here and in Endpoint.recv — one method call per queued candidate
    # adds up when every RPC reply is a tagged receive.
    def deliver(self, msg: Message) -> None:
        msg_tag, msg_source = msg.tag, msg.source
        for i, (tag, source, ev) in enumerate(self.receivers):
            if (tag is ANY or msg_tag == tag) and (source is ANY or msg_source == source):
                del self.receivers[i]
                ev.succeed(msg)
                return
        if type(msg_tag) is not ExpectedTag:
            self.messages.append(msg)

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
        horizon: Dict[str, float],
    ):
        self.fabric = fabric
        self.address = address
        self.node_index = node_index
        self.model = model
        #: destination uri -> arrival time of the last message sent
        #: there: the fabric's FIFO record for this *address* (it
        #: outlives the endpoint, see Fabric.register).
        self._horizon = horizon
        self.alive = True
        self._mailbox = _Mailbox()
        # Bulk transfers serialize on the initiator's NIC: N concurrent
        # RDMA pulls by one process queue behind each other (this is
        # what makes Colza's `stage` cost ~100 ms when hundreds of
        # clients hit a few servers at once — Fig. 9).
        from repro.sim.resources import Resource

        self._nic = Resource(fabric.sim, capacity=1, name=f"{address}.nic")

    # messaging ---------------------------------------------------------
    def send(self, dest: Address, payload: Any, tag: Hashable = 0, nbytes: Optional[int] = None) -> Event:
        """Send; the returned event fires at delivery time.

        ``nbytes`` overrides the computed payload size (used when a
        small Python object stands in for a larger wire format).
        """
        fabric = self.fabric
        sim = fabric.sim
        if not self.alive:
            raise NAError(f"send from deregistered endpoint {self.address}")
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        source = self.address
        # Fault injection point: consulted before transit-cost charging
        # so injected delays shift the arrival (and the FIFO horizon)
        # exactly as slow links would. Un-instrumented runs pay the one
        # dict probe and no call.
        action: Optional[LinkAction] = None
        if "na.send" in sim._interceptors:
            action = sim.intercept("na.send", source, dest, size, tag)
        # Table probes are ``in`` and a subscript, not ``dict.get``: no
        # call for the lookups every message makes.
        dest_uri = dest.uri
        endpoints = fabric._endpoints
        dest_ep = endpoints[dest_uri] if dest_uri in endpoints else None
        same_node = dest_ep is not None and dest_ep.node_index == self.node_index
        transit = self.model.p2p_time(size, same_node=same_node)
        if action is not None and action.delay > 0:
            transit += action.delay

        now = sim._now
        arrive = now + transit
        horizon = self._horizon
        if dest_uri in horizon and horizon[dest_uri] > arrive:
            arrive = horizon[dest_uri]
        horizon[dest_uri] = arrive
        fabric._count(size, arrive - now)

        # Event names are constants: formatting an address into a
        # per-message name would cost more than the event it labels,
        # and the transit row below already records source and
        # destination.
        done = Event(sim, "na.send")
        msg = Message(source, dest, tag, payload, size, now, arrive)

        dropped = action is not None and action.drop
        # A transit row: departs here in the sender's context (so it
        # nests under the collective/RPC driving it), arrives at
        # delivery time into the store it departed into.
        trace = sim.trace
        row = trace.depart("na.send", source, dest, size)
        sim._schedule_at(arrive, fabric._land, (dest_uri, dropped, msg, trace.spans, row, done))
        if action is not None and action.duplicate and not dropped:

            def duplicate_cb() -> None:
                target = endpoints.get(dest_uri)
                if target is not None and target.alive:
                    target._mailbox.deliver(msg)

            sim._schedule_at(arrive, duplicate_cb)
        return done

    def recv(self, tag: Hashable = ANY, source: Optional[Address] = ANY) -> Event:
        """Receive the next matching message (fires with a Message)."""
        if not self.alive:
            raise NAError(f"recv on deregistered endpoint {self.address}")
        ev = Event(self.fabric.sim, "na.recv")
        mailbox = self._mailbox
        for i, msg in enumerate(mailbox.messages):
            if (tag is ANY or msg.tag == tag) and (source is ANY or msg.source == source):
                del mailbox.messages[i]
                ev.succeed(msg)
                return ev
        mailbox.receivers.append((tag, source, ev))
        return ev

    def cancel_recv(self, ev: Event) -> None:
        self._mailbox.cancel(ev)

    def expose(self, payload: Any) -> MemoryHandle:
        """RDMA-expose a local buffer."""
        return MemoryHandle.expose(self.address, payload)


class Fabric:
    """The machine-wide interconnect."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        #: address uri -> live endpoint.
        self._endpoints: Dict[str, Endpoint] = {}
        # FIFO horizon enforcing non-overtaking delivery per (source,
        # destination): ``horizon[src][dest]``, by uri. Keyed by
        # *address*, not by endpoint, so it survives a
        # deregister/register of the same name (a restarted daemon still
        # queues behind what its predecessor put on the wire); each
        # endpoint is handed its inner dict, so a send makes one lookup.
        self._fifo_horizon: Dict[str, Dict[str, float]] = {}
        #: Totals moved (messages, and message + bulk bytes): the one
        #: count of each, which ``na.messages_sent`` / ``na.bytes_sent``
        #: report.
        self.messages_sent = 0
        self.bytes_sent = 0
        self._metrics = sim.metrics.scope("na")
        self._metrics.pulled("messages_sent", self, "messages_sent")
        self._metrics.pulled("bytes_sent", self, "bytes_sent")
        self._m_dropped = self._metrics.counter("messages_dropped")
        self._m_transit = self._metrics.histogram("send_transit_seconds")
        self._m_rdma = self._metrics.histogram("rdma_seconds")

    # ------------------------------------------------------------------
    # registration
    def register(self, name: str, node_index: int, model: CostModel) -> Endpoint:
        """Create an endpoint ``na+sim://nid<idx>/<name>``."""
        address = Address.make(f"nid{node_index:05d}", name)
        uri = address.uri
        if uri in self._endpoints:
            raise NAError(f"address {address} already registered")
        ep = Endpoint(self, address, node_index, model, self._fifo_horizon.setdefault(uri, {}))
        self._endpoints[uri] = ep
        return ep

    def deregister(self, endpoint: Endpoint) -> None:
        """Remove an endpoint; in-flight messages to it are dropped."""
        endpoint.alive = False
        self._endpoints.pop(endpoint.address.uri, None)

    # ------------------------------------------------------------------
    # the books of what endpoints send: only the fabric advances its totals
    def _count(self, nbytes: int, transit: float) -> None:
        """One message sent: the totals ``sim.metrics`` pulls, and its
        transit time."""
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self._m_transit.observe(transit)

    def _land(self, arrival: tuple) -> None:
        """A message's arrival time (``arrival`` is what ``Endpoint.send``
        scheduled): into its destination's mailbox, unless it was dropped
        or the endpoint died in flight, and its transit row closes."""
        dest_uri, dropped, msg, store, row, done = arrival
        endpoints = self._endpoints
        target = endpoints[dest_uri] if dest_uri in endpoints else None
        delivered = not dropped and target is not None and target.alive
        if delivered:
            target._mailbox.deliver(msg)
        else:
            self._m_dropped.inc()
        self.sim.trace.arrive(store, row, not delivered)
        done.succeed(msg)

    # ------------------------------------------------------------------
    # bulk (RDMA)
    def rdma_pull(self, puller: Endpoint, handle: MemoryHandle) -> Event:
        """Fetch the remote buffer behind ``handle`` (fires with payload).

        Serialized on the puller's NIC: concurrent pulls queue.
        """
        sim = self.sim
        owner_ep = self._endpoints.get(handle.owner.uri)
        same_node = owner_ep is not None and owner_ep.node_index == puller.node_index
        cost = puller.model.rdma_time(handle.nbytes, same_node=same_node)
        if "na.rdma" in sim._interceptors:
            factor = sim.intercept("na.rdma", puller.address, handle.owner, handle.nbytes)
            if factor is not None:
                cost *= float(factor)
        self.bytes_sent += handle.nbytes
        return self._bulk_transfer(puller, cost, lambda: handle.payload, "rdma_pull", handle.nbytes)

    def _bulk_transfer(self, initiator: Endpoint, cost: float, finish, name: str, nbytes: int) -> Event:
        done = Event(self.sim, name=name)

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
