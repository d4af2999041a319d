"""Margo instances and providers.

A :class:`MargoInstance` is the per-process Mochi runtime: one Mercury
instance, one (or more) Argobots xstream, and a registry of providers.
Provider RPCs are namespaced ``"<provider>/<method>"`` on the wire, so
several providers coexist on one endpoint — exactly Margo's
``provider_id`` mechanism.

Handlers declared on a provider are *bound generators*:
``method(self, margo, input)``. They run as ULTs; blocking on the
network yields the xstream (the Argobots advantage the paper leans on),
while explicit compute goes through ``margo.compute(seconds)``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Dict, Generator, Optional

from repro.argo import Xstream
from repro.mercury import MercuryInstance
from repro.na.address import Address
from repro.na.costmodel import CostModel, get_cost_model
from repro.na.fabric import Fabric
from repro.na.payload import MemoryHandle
from repro.sim.kernel import Event, Simulation
from repro.telemetry.metrics import Histogram

__all__ = ["MargoInstance", "Provider"]


class Provider:
    """Base class for Margo providers (services exporting RPCs).

    Subclasses call :meth:`export` to publish generator methods. The
    provider name prefixes every RPC, mirroring Margo provider ids.
    """

    def __init__(self, margo: "MargoInstance", name: str):
        self.margo = margo
        self.name = name
        self._exported: list = []
        margo._attach_provider(self)

    def export(self, method_name: str, handler: Callable[..., Generator]) -> None:
        """Publish ``handler(margo_instance_input) -> output`` as
        ``"<provider>/<method>"``."""
        rpc_name = f"{self.name}/{method_name}"

        def wrapper(_hg: MercuryInstance, input: Any) -> Generator:
            return (yield from handler(input))

        self.margo.hg.register_rpc(rpc_name, wrapper)
        self._exported.append(method_name)

    def unexport(self, method_name: str) -> None:
        self.margo.hg.deregister_rpc(f"{self.name}/{method_name}")
        if method_name in self._exported:
            self._exported.remove(method_name)

    def shutdown(self) -> None:
        """Detach from the instance and withdraw every exported RPC.

        Without the withdrawal a late ``forward`` would still dispatch
        into a provider that considers itself gone — the handler would
        run against torn-down state instead of timing out like every
        other message to a departed peer.
        """
        for method_name in list(self._exported):
            self.unexport(method_name)
        self.margo._detach_provider(self)


class MargoInstance:
    """The per-process Mochi runtime."""

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
        self.node_index = node_index
        self.model = model or get_cost_model("mona")
        self.xstream = Xstream(sim, name=f"{name}.es0")
        self.hg = MercuryInstance(sim, fabric, name, node_index, self.model)
        self.address: Address = self.hg.address
        self.providers: Dict[str, Provider] = {}
        self._finalized = False

    # RPC ---------------------------------------------------------------

    def provider_call(
        self,
        dest: Address,
        provider: str,
        method: str,
        input: Any = None,
        nbytes: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Generator[Event, Any, Any]:
        """Call ``method`` on a named provider at ``dest``."""
        return (
            yield from self.hg.forward(
                dest, f"{provider}/{method}", input, nbytes=nbytes, timeout=timeout
            )
        )

    # bulk ----------------------------------------------------------------
    def expose(self, payload: Any) -> MemoryHandle:
        return self.hg.expose(payload)

    def bulk_pull(self, handle: MemoryHandle) -> Event:
        return self.hg.bulk_pull(handle)

    # tasking --------------------------------------------------------------
    def spawn(self, gen: Generator, name: str = "") -> "Any":
        """Run a ULT on this instance's xstream, in the process's scope."""
        ult = self.xstream.spawn(gen, name=name or f"{self.name}.ult")
        ult.task.scope = self.name
        return ult

    def compute(self, seconds: float) -> Generator[Event, Any, None]:
        """Charge serialized compute on this process's core.

        A ``"margo.compute"`` interceptor may return a cost multiplier
        (slow-node fault injection: thermal throttling, a noisy
        neighbor, a failing disk behind the pipeline).
        """
        sim = self.sim
        if "margo.compute" in sim._interceptors:
            factor = sim.intercept("margo.compute", self.name)
            if factor is not None:
                seconds *= float(factor)
        span = sim.trace.begin("margo.compute", instance=self.name, seconds=seconds)
        result = yield from self.xstream.compute(seconds)
        sim.trace.end(span)
        self._m_compute.observe(span.duration if span.recorded else seconds)
        return result

    @cached_property
    def _m_compute(self) -> Histogram:
        return self.sim.metrics.scope("margo").histogram("compute_seconds")

    # lifecycle --------------------------------------------------------------
    def _attach_provider(self, provider: Provider) -> None:
        if provider.name in self.providers:
            raise ValueError(f"provider {provider.name!r} already attached to {self.name}")
        self.providers[provider.name] = provider

    def _detach_provider(self, provider: Provider) -> None:
        self.providers.pop(provider.name, None)

    def finalize(self) -> None:
        """Shut the runtime down (providers withdrawn, endpoint
        deregistered; a running handler's reply is dropped)."""
        if self._finalized:
            return
        self._finalized = True
        for provider in list(self.providers.values()):
            provider.shutdown()
        self.hg.finalize()

    def crash(self) -> None:
        """Die: :meth:`finalize`, then kill every task of the process."""
        self.finalize()
        self.sim.kill_scope(self.name)

