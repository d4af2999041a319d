"""The static MPI world.

An :class:`MpiWorld` materializes ``MPI_Init`` for N ranks: endpoints,
one xstream (core) per rank, and ``MPI_COMM_WORLD``. Its defining
feature for this paper is what it *cannot* do: change size. Attempting
to grow raises :class:`WorldFrozenError` — the limitation that makes
elastic in situ analysis impossible on a pure-MPI stack.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.argo import Xstream
from repro.na.costmodel import get_cost_model
from repro.na.fabric import Fabric
from repro.sim.kernel import Simulation

__all__ = ["MpiWorld", "WorldFrozenError"]


class WorldFrozenError(RuntimeError):
    """MPI cannot add or remove ranks at run time."""


class MpiWorld:
    """A fixed-size set of MPI ranks sharing a fabric.

    Parameters
    ----------
    profile:
        ``"craympich"`` or ``"openmpi"`` — selects the calibrated
        vendor cost model for p2p and collectives.
    """

    _instances = itertools.count()

    def __init__(
        self,
        sim: Simulation,
        fabric: Fabric,
        nprocs: int,
        profile: str = "craympich",
        procs_per_node: int = 32,
        first_node: int = 0,
        name: Optional[str] = None,
        node_of_rank=None,
    ):
        if nprocs < 1:
            raise ValueError("MPI world needs at least one rank")
        if profile not in ("craympich", "openmpi"):
            raise ValueError(f"unknown MPI profile {profile!r}")
        self.sim = sim
        self.fabric = fabric
        self.nprocs = nprocs
        self.profile = profile
        self.model = get_cost_model(profile)
        self.name = name or f"mpi{next(self._instances)}"
        self.xstreams: List[Xstream] = [
            Xstream(sim, name=f"{self.name}.rank{r}") for r in range(nprocs)
        ]
        placement = node_of_rank or (lambda r: first_node + r // procs_per_node)
        self.endpoints = [
            fabric.register(f"{self.name}-rank{r}", placement(r), self.model)
            for r in range(nprocs)
        ]
        from repro.mpi.comm import _CommGroup, MpiComm

        self._world_group = _CommGroup(self, list(range(nprocs)))
        self.comms: List[MpiComm] = [
            MpiComm(self, self._world_group, rank) for rank in range(nprocs)
        ]

    # ------------------------------------------------------------------
    def comm_world(self, rank: int) -> "MpiComm":
        """Rank ``rank``'s handle on MPI_COMM_WORLD."""
        return self.comms[rank]

    def xstream(self, rank: int) -> Xstream:
        return self.xstreams[rank]

    def grow(self, extra_procs: int) -> None:
        """MPI cannot do this — always raises.

        (MPI_Comm_spawn/accept/connect are 'often not implemented by
        vendors or have limited support', §II; the simulator enforces
        the practical reality.)
        """
        raise WorldFrozenError(
            f"cannot add {extra_procs} ranks to a running MPI world: "
            "MPI_COMM_WORLD is fixed at MPI_Init"
        )

    def shrink(self, ranks: List[int]) -> None:
        """Also unavailable without ULFM-style extensions — raises."""
        raise WorldFrozenError("cannot remove ranks from a running MPI world")

