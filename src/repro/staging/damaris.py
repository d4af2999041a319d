"""Damaris baseline ("dedicated nodes" mode).

Faithful to the constraints the paper lists in §III-D:

- clients and servers share one ``MPI_COMM_WORLD``, split at startup
  (the application must stop using the world communicator);
- the number of dedicated server processes must divide the number of
  clients;
- deployment is monolithic — servers live and die with the app;
- each client independently signals its server after writing; servers
  enter the plugin as soon as *their own* clients have signaled, then
  stall (spinning on MPI) in the plugin's first collective waiting for
  other servers.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.catalyst import CoProcessor
from repro.catalyst.costs import PipelineCostModel
from repro.catalyst.script import CatalystScript
from repro.mpi import MpiWorld
from repro.na import Fabric
from repro.sim import Simulation
from repro.vtk.parallel import MPIController

__all__ = ["DamarisDeployment"]


class DamarisDeployment:
    """One Damaris application: clients + dedicated in-situ cores."""

    def __init__(
        self,
        sim: Simulation,
        fabric: Fabric,
        n_clients: int,
        n_servers: int,
        script: CatalystScript,
        profile: str = "craympich",
        procs_per_node: int = 4,
        first_node: int = 0,
        costs: Optional[PipelineCostModel] = None,
        width: int = 256,
        height: int = 256,
        mode: str = "dedicated_nodes",
    ):
        if n_clients % n_servers != 0:
            # The divisibility constraint the paper calls out.
            raise ValueError(
                f"Damaris requires servers ({n_servers}) to divide clients ({n_clients})"
            )
        if mode not in ("dedicated_nodes", "dedicated_cores"):
            raise ValueError(f"unknown Damaris mode {mode!r}")
        self.sim = sim
        self.n_clients = n_clients
        self.n_servers = n_servers
        self.clients_per_server = n_clients // n_servers
        self.script = script
        self.mode = mode
        # One MPI application containing everything (monolithic deploy).
        # "dedicated nodes" (the paper's Fig. 8 setting) segregates
        # servers on their own nodes; "dedicated cores" co-locates each
        # server with its clients, so writes ride shared memory.
        if mode == "dedicated_cores":
            cps = self.clients_per_server

            def node_of_rank(rank: int) -> int:
                if rank < n_clients:
                    return first_node + rank // cps
                return first_node + (rank - n_clients)

        else:
            node_of_rank = None
        self.world = MpiWorld(
            sim, fabric, n_clients + n_servers, profile=profile,
            procs_per_node=procs_per_node, first_node=first_node, name="damaris",
            node_of_rank=node_of_rank,
        )
        self._server_comms = [None] * n_servers
        self._client_comms = [None] * n_clients
        self.coprocs = [
            CoProcessor(name=f"damaris-server-{i}", costs=costs, width=width, height=height)
            for i in range(n_servers)
        ]
        # Messages for future iterations (clients are not throttled by
        # servers; the shared-memory buffer absorbs them).
        self._pending: List[List[Tuple]] = [[] for _ in range(n_servers)]

    # ------------------------------------------------------------------
    # ranks 0..n_clients-1 are clients; the rest are servers.
    def server_world_rank(self, server_index: int) -> int:
        return self.n_clients + server_index

    def server_of_client(self, client_rank: int) -> int:
        return client_rank // self.clients_per_server

    def split(self, world_rank: int) -> Generator:
        """Each rank must call this once: the COMM_WORLD split Damaris
        imposes on its host application."""
        comm = self.world.comm_world(world_rank)
        color = "client" if world_rank < self.n_clients else "server"
        sub = yield from comm.split(color, key=world_rank)
        if color == "client":
            self._client_comms[world_rank] = sub
        else:
            idx = world_rank - self.n_clients
            self._server_comms[idx] = sub
            self.coprocs[idx].initialize(self.script, MPIController(sub))
        return sub

    # ------------------------------------------------------------------
    # client API
    def damaris_write(self, client_rank: int, iteration: int, block_id: int, payload: Any) -> Generator:
        """Ship a block to the client's dedicated server (MPI p2p)."""
        comm = self.world.comm_world(client_rank)
        dest = self.server_world_rank(self.server_of_client(client_rank))
        yield from comm.send(dest, ("data", iteration, block_id, payload), tag="damaris")
        return None

    def damaris_signal(self, client_rank: int, iteration: int) -> Generator:
        """Tell the server this client's iteration data is complete.

        Independent per client — there is no global coordination, which
        is the crux of Fig. 8's Damaris result.
        """
        comm = self.world.comm_world(client_rank)
        dest = self.server_world_rank(self.server_of_client(client_rank))
        yield from comm.send(dest, ("signal", iteration), tag="damaris")
        return None

    # ------------------------------------------------------------------
    # server loop
    def server_iteration(self, server_index: int, iteration: int) -> Generator:
        """Receive this iteration's data+signals, then run the plugin."""
        world_rank = self.server_world_rank(server_index)
        comm = self.world.comm_world(world_rank)
        blocks: List[Any] = []
        signals = 0
        # Drain buffered messages from earlier receive loops first.
        pending, self._pending[server_index] = self._pending[server_index], []
        backlog = list(pending)
        while signals < self.clients_per_server:
            if backlog:
                msg = backlog.pop(0)
            else:
                msg = yield from comm.recv(tag="damaris")
            kind = msg[0]
            if msg[1] != iteration:
                self._pending[server_index].append(msg)
            elif kind == "data":
                blocks.append(msg[3])
            elif kind == "signal":
                signals += 1
        # Enter the plugin immediately — uncoordinated across servers.
        span = self.sim.trace.begin(
            "damaris.plugin", server=server_index, iteration=iteration
        )
        server_comm = self._server_comms[server_index]
        xstream = self.world.xstream(world_rank)

        def charge(seconds: float) -> Generator:
            return (yield from xstream.compute(seconds))

        results = yield from self.coprocs[server_index].coprocess(iteration, blocks, charge)
        self.sim.trace.end(span)
        return results
