"""The per-process MoNA runtime.

A :class:`MonaInstance` owns one NA endpoint (with the MoNA cost model,
whose calibration already reflects MoNA's request/buffer caching) and
builds communicators from address lists. Mirrors ``mona_instance_t`` /
``mona_comm_create`` in the C library.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.na.address import Address
from repro.na.costmodel import CostModel, get_cost_model
from repro.na.fabric import Endpoint, Fabric
from repro.sim.kernel import Simulation

__all__ = ["MonaInstance"]


class MonaInstance:
    """One process's MoNA progress loop + endpoint."""

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
        self.endpoint: Endpoint = fabric.register(f"mona-{name}", node_index, self.model)
        # Same address-set created repeatedly must yield matching ids on
        # every member: count creations per canonical member tuple.
        self._comm_counters: Dict[Tuple[Address, ...], itertools.count] = {}

    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        return self.endpoint.address

    def comm_create(self, addresses: Sequence[Address], comm_id: Optional[str] = None):
        """Build a communicator over ``addresses`` (must include self).

        All members must call with the *same ordered list*; ranks are
        positions in it. When ``comm_id`` is omitted, a deterministic id
        is derived from the member tuple and a per-set creation counter,
        so symmetric calls on every member agree without communication.
        """
        from repro.mona.comm import MonaComm

        members = tuple(addresses)
        if self.address not in members:
            raise ValueError(f"{self.address} not in communicator member list")
        if len(set(members)) != len(members):
            raise ValueError("duplicate addresses in communicator")
        if comm_id is None:
            import hashlib

            counter = self._comm_counters.setdefault(members, itertools.count())
            digest = hashlib.sha256("|".join(a.uri for a in members).encode()).hexdigest()[:8]
            comm_id = f"mona:{digest}:{next(counter)}"
        return MonaComm(self, list(members), comm_id)

    def finalize(self) -> None:
        """Tear down the endpoint (in-flight traffic to it is dropped)."""
        self.fabric.deregister(self.endpoint)

