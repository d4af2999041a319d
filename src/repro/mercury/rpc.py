"""The Mercury RPC engine.

Each :class:`MercuryInstance` owns one NA endpoint and a dispatch loop
(a ULT on the instance's xstream-of-record is attached later by Margo;
at this layer the loop is a plain kernel task). RPC handlers are
generators ``handler(instance, input) -> output``; whatever they return
is shipped back to the caller. Exceptions raised by a handler travel
back and re-raise at the call site as :class:`RpcError`.

Wire accounting: every request/response carries a small header
(:data:`RPC_HEADER_BYTES`) plus the size of its body — declared by the
caller, or priced structurally by :func:`repro.na.payload.payload_nbytes`
— so RPC-heavy control paths (2PC, SSG gossip) cost realistic time.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Generator, Optional, Tuple

from repro.na.address import Address
from repro.na.costmodel import CostModel, get_cost_model
from repro.na.fabric import Endpoint, ExpectedTag, Fabric, Message
from repro.na.payload import MemoryHandle, payload_nbytes
from repro.sim.kernel import Event, Simulation, Task

__all__ = ["MercuryInstance", "RpcError", "RpcRequest", "RpcTimeout", "RpcUnknown", "RPC_HEADER_BYTES"]

#: Fixed per-message RPC framing overhead, bytes.
RPC_HEADER_BYTES = 64

_RPC_TAG = "__hg_rpc__"


class RpcError(RuntimeError):
    """A handler raised; carries the remote exception's repr."""


class RpcTimeout(RpcError):
    """The response did not arrive within the caller's deadline."""


class RpcUnknown(RpcError):
    """The target had no handler registered under that name."""


@dataclass
class RpcRequest:
    """On-the-wire request record."""

    name: str
    input: Any
    reply_to: Address
    reply_tag: str
    #: Caller's current span id — the distributed trace context. The
    #: handler's spans nest under it, so one iteration's tree crosses
    #: the client/server boundary. Not counted against wire size (a
    #: real tracer packs this into the 64-byte header).
    trace_parent: Optional[int] = None


# Handler: generator function (instance, input) -> output.
Handler = Callable[["MercuryInstance", Any], Generator]


class MercuryInstance:
    """One Mercury runtime: endpoint + RPC registry + dispatch loop."""

    def __init__(
        self,
        sim: Simulation,
        fabric: Fabric,
        name: str,
        node_index: int,
        model: Optional[CostModel] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.model = model or get_cost_model("mona")
        self.endpoint: Endpoint = fabric.register(name, node_index, self.model)
        #: The endpoint's address (fixed for the instance's lifetime).
        self.address: Address = self.endpoint.address
        self._handlers: Dict[str, Handler] = {}
        self._reply_seq = itertools.count()
        # At-most-once dispatch: a transport may deliver one request
        # twice (duplication faults); replaying a handler would stage a
        # block twice or re-run a 2PC vote. Remember recently seen
        # request identities — (reply-to uri, reply tag): two strs,
        # whose hashes are cached — and drop replays.
        self._seen_requests: set = set()
        self._seen_order: Deque[Tuple[str, str]] = deque()
        self._finalized = False
        self._dispatch_task: Task = sim.spawn(self._dispatch_loop(), name=f"{name}.hg-dispatch")
        self._dispatch_task.scope = name  # a process root: handlers inherit it

    # ------------------------------------------------------------------

    def register_rpc(self, rpc_name: str, handler: Handler) -> None:
        """Install (or replace) the handler for ``rpc_name``."""
        self._handlers[rpc_name] = handler

    def deregister_rpc(self, rpc_name: str) -> None:
        self._handlers.pop(rpc_name, None)

    # ------------------------------------------------------------------
    # client side
    def forward(
        self,
        dest: Address,
        rpc_name: str,
        input: Any = None,
        nbytes: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Generator[Event, Any, Any]:
        """Invoke ``rpc_name`` at ``dest``; yields until the response.

        Use as ``result = yield from hg.forward(addr, "ping", arg)``.
        Raises :class:`RpcTimeout` on deadline, :class:`RpcUnknown` for
        unregistered names, :class:`RpcError` for remote failures.
        """
        if self._finalized:
            raise RpcError(f"forward on finalized instance {self.name}")
        span = self.sim.trace.begin("hg.forward", rpc=rpc_name, dest=dest)
        try:
            reply_tag = ExpectedTag(f"reply-{self.name}-{next(self._reply_seq)}")
            request = RpcRequest(
                rpc_name,
                input,
                self.endpoint.address,
                reply_tag,
                trace_parent=span.id if span.recorded else None,
            )
            body = RPC_HEADER_BYTES + (payload_nbytes(input) if nbytes is None else int(nbytes))
            # The reply's receive is posted before the request leaves, and
            # with a deadline it is the one event waited on: the reply
            # cancels the deadline, the deadline withdraws the receive.
            rx = self.endpoint.recv(tag=reply_tag)
            self.endpoint.send(dest, request, tag=_RPC_TAG, nbytes=body)
            if timeout is not None:
                self.sim.deadline(rx, timeout, self._reply_overdue, (rx, rpc_name, dest, timeout))
            try:
                msg: Message = yield rx
            except BaseException:
                if not rx.fired:  # killed or interrupted: nobody takes the reply
                    self.endpoint.cancel_recv(rx)
                raise
            status, payload = msg.payload
            if status == "ok":
                self.sim.trace.end(span, status="ok")
                return payload
            if status == "unknown":
                raise RpcUnknown(f"rpc {rpc_name!r} not registered at {dest}")
            raise RpcError(f"rpc {rpc_name!r} at {dest} failed: {payload}")
        except BaseException as err:
            self.sim.trace.end(span, error=type(err).__name__)
            raise

    def _reply_overdue(self, overdue: tuple) -> None:
        """A forward's deadline passed before its reply: withdraw the
        receive (a reply landing later is dropped) and fail the wait."""
        rx, rpc_name, dest, timeout = overdue
        self.endpoint.cancel_recv(rx)
        rx.fail(RpcTimeout(f"rpc {rpc_name!r} to {dest} timed out after {timeout}s"))

    # ------------------------------------------------------------------
    # bulk
    def expose(self, payload: Any) -> MemoryHandle:
        """Register local memory for remote bulk access."""
        return self.endpoint.expose(payload)

    def bulk_pull(self, handle: MemoryHandle) -> Event:
        """RDMA-get the remote region (fires with the payload)."""
        return self.fabric.rdma_pull(self.endpoint, handle)

    # ------------------------------------------------------------------
    # lifecycle
    def finalize(self) -> None:
        """Tear the instance down; pending dispatches are dropped (a
        handler still running finishes, but its reply is not sent)."""
        if self._finalized:
            return
        self._finalized = True
        self._dispatch_task.kill()
        self.fabric.deregister(self.endpoint)

    # ------------------------------------------------------------------
    # server side
    _SEEN_REQUEST_LIMIT = 1024

    def _dispatch_loop(self) -> Generator[Event, Any, None]:
        while True:
            msg: Message = yield self.endpoint.recv(tag=_RPC_TAG)
            request: RpcRequest = msg.payload
            ident = (request.reply_to.uri, request.reply_tag)
            if ident in self._seen_requests:
                continue  # duplicate delivery: already dispatched
            self._seen_requests.add(ident)
            self._seen_order.append(ident)
            if len(self._seen_order) > self._SEEN_REQUEST_LIMIT:
                self._seen_requests.discard(self._seen_order.popleft())
            self.sim.spawn(
                self._run_handler(request),
                name=f"{self.name}.rpc.{request.name}",
            )

    def _run_handler(self, request: RpcRequest) -> Generator[Event, Any, None]:
        # Fault injection point: a "hang" verdict freezes this handler
        # ULT forever — the process looks alive to the network (its
        # endpoint accepts messages) but never answers, the failure mode
        # SWIM cannot distinguish from a crash.
        sim = self.sim
        if (
            "hg.handler" in sim._interceptors
            and sim.intercept("hg.handler", self.name, request.name) == "hang"
        ):
            yield Event(sim, name=f"{self.name}.chaos-hang")  # flowcheck: disable=FC002 -- chaos fault injection: the hang verdict wants a forever-pending event
            return
        # Server half of the distributed trace: nest under the caller's
        # forward span carried in the request.
        span = self.sim.trace.begin(
            "hg.handler", rpc=request.name, parent=request.trace_parent
        )
        handler = self._handlers.get(request.name)
        tags = {}
        if handler is None:
            status, payload = "unknown", request.name
        else:
            try:
                status, payload = "ok", (yield from handler(self, request.input))
            except Exception as err:  # noqa: BLE001 - errors cross the wire
                status, payload = "err", repr(err)
                tags["error"] = type(err).__name__
        if not self.endpoint.alive:
            # Finalized while the handler ran (a departing server
            # proxying a SWIM ping_req): no endpoint to reply from.
            self.sim.trace.end(span, status="dropped")
            return
        ev = self._respond(request, (status, payload))
        self.sim.trace.end(span, status=status, **tags)
        yield ev

    def _respond(self, request: RpcRequest, wire: tuple) -> Event:
        size = RPC_HEADER_BYTES + payload_nbytes(wire[1])
        return self.endpoint.send(request.reply_to, wire, tag=request.reply_tag, nbytes=size)
