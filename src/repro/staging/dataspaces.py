"""DataSpaces baseline (post-Margo-refactor).

A separate staging service (its own deployment, like Colza): clients
``put`` data regions via Margo RPC + RDMA pull, and a coordinated
``exec`` trigger fans out from one client to all servers, which run the
same MPI-based pipeline as Colza+MPI. Per §III-D it avoids Damaris'
drawbacks (no world-split, separate deployment, no divisibility
constraint) but cannot grow or shrink: the pipeline communicator is a
static MPI world.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.catalyst import CoProcessor
from repro.catalyst.costs import PipelineCostModel
from repro.catalyst.script import CatalystScript
from repro.margo import MargoInstance, Provider
from repro.mpi import MpiWorld
from repro.na import Fabric, get_cost_model
from repro.na.payload import MemoryHandle
from repro.sim import Simulation
from repro.vtk.parallel import MPIController

__all__ = ["DataSpacesDeployment", "DataSpacesServer"]


class DataSpacesServer(Provider):
    """One DataSpaces staging server (a Margo provider)."""

    def __init__(
        self,
        margo: MargoInstance,
        coproc: CoProcessor,
        mpi_comm,
        xstream,
    ):
        super().__init__(margo, "dspaces")
        self.coproc = coproc
        self.mpi_comm = mpi_comm
        self.xstream = xstream
        self.staged: Dict[int, List[Any]] = {}
        self.coproc.initialize_called = False
        self.export("put", self._rpc_put)
        self.export("exec", self._rpc_exec)

    def _rpc_put(self, input: dict) -> Generator:
        handle: MemoryHandle = input["handle"]
        payload = yield self.margo.bulk_pull(handle)
        self.staged.setdefault(input["iteration"], []).append(payload)
        return "ok"

    def _rpc_exec(self, input: dict) -> Generator:
        iteration = input["iteration"]
        span = self.margo.sim.trace.begin(
            "dataspaces.exec", server=self.margo.name, iteration=iteration
        )

        def charge(seconds: float) -> Generator:
            return (yield from self.xstream.compute(seconds))

        blocks = self.staged.pop(iteration, [])
        yield from self.coproc.coprocess(iteration, blocks, charge)
        self.margo.sim.trace.end(span)
        return "done"


class DataSpacesDeployment:
    """A DataSpaces staging area of ``n_servers`` processes."""

    def __init__(
        self,
        sim: Simulation,
        fabric: Fabric,
        n_servers: int,
        script: CatalystScript,
        profile: str = "craympich",
        procs_per_node: int = 4,
        first_node: int = 0,
        costs: Optional[PipelineCostModel] = None,
        width: int = 256,
        height: int = 256,
    ):
        self.sim = sim
        self.n_servers = n_servers
        # The pipeline runs over a static MPI world among the servers.
        self.pipeline_world = MpiWorld(
            sim, fabric, n_servers, profile=profile,
            procs_per_node=procs_per_node, first_node=first_node, name="dspaces-mpi",
        )
        self.servers: List[DataSpacesServer] = []
        for i in range(n_servers):
            margo = MargoInstance(
                sim, fabric, f"dspaces-{i}", first_node + i // procs_per_node,
                get_cost_model("mona"),  # Margo control plane (Mochi stack)
            )
            coproc = CoProcessor(name=f"dspaces-{i}", costs=costs, width=width, height=height)
            comm = self.pipeline_world.comm_world(i)
            coproc.initialize(script, MPIController(comm))
            self.servers.append(
                DataSpacesServer(margo, coproc, comm, self.pipeline_world.xstream(i))
            )

    # ------------------------------------------------------------------
    def put(self, client_margo: MargoInstance, iteration: int, block_id: int, payload: Any) -> Generator:
        """Client-side put: the target server pulls via RDMA."""
        server = self.servers[block_id % self.n_servers]
        handle = client_margo.expose(payload)
        return (
            yield from client_margo.provider_call(
                server.margo.address, "dspaces", "put",
                {"iteration": iteration, "block_id": block_id, "handle": handle},
                nbytes=256,
            )
        )

    def execute(self, client_margo: MargoInstance, iteration: int) -> Generator:
        """Coordinated execute: one trigger fanned out to all servers."""
        tasks = [
            self.sim.spawn(
                client_margo.provider_call(
                    server.margo.address, "dspaces", "exec", {"iteration": iteration}
                ),
                name="dspaces-exec",
            )
            for server in self.servers
        ]
        yield self.sim.all_of([t.join() for t in tasks])
        return "done"
