"""Shared machinery for the Colza pipeline experiments (Figs. 5-10).

A :class:`ColzaExperiment` assembles the full stack — cluster, staging
deployment, N client processes, a deployed Catalyst pipeline in MoNA or
MPI mode — and drives iterations of the standard protocol: one client
runs the 2PC ``activate``, all clients ``stage`` their blocks
concurrently, then ``execute`` + ``deactivate``. Each iteration is
wrapped in a ``colza.iteration`` span and its :class:`IterationTiming`
is read off that span's children — every number the bench suite
reports flows through the same :class:`~repro.sim.trace.Span` tree the
Chrome export and the critical-path analyzer read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Iterable, List, Optional, Sequence, Tuple

from repro.catalyst.script import CatalystScript
from repro.core import ColzaAdmin, Deployment
from repro.core.autoscale import SloAutoscaler, SloConfig, ThresholdBand
from repro.core.pipelines import MPI_COMM_REGISTRY
from repro.mpi import MpiWorld
from repro.sim import Simulation
from repro.sim.platform import Cluster
from repro.sim.trace import Span
from repro.ssg import SwimConfig
from repro.testing import drive, run_until

__all__ = ["ColzaExperiment", "IterationTiming"]

#: Blocks for one client: list of (block_id, payload, metadata).
ClientBlocks = Sequence[Tuple[int, Any]]


@dataclass
class IterationTiming:
    iteration: int
    activate: float
    stage_total: float
    stage_mean: float
    execute: float
    deactivate: float
    n_servers: int

    @classmethod
    def from_span(cls, span: Span) -> "IterationTiming":
        """Derive the phase breakdown from one ``colza.iteration``
        :class:`~repro.sim.trace.Span`: its children's names and times,
        read off the tracer's columns through the child index.

        Children arrive in span-begin order, so the stage sum
        accumulates in the same order the flat-list scraping used to —
        bit-identical totals on the same seed.
        """
        store = span.store
        last = {"colza.activate": 0.0, "colza.execute": 0.0, "colza.deactivate": 0.0}
        stage_total, stages = 0, 0
        for row in store.child_rows(span.id - store.first_id):
            end, name = store.end[row], store.kind_list[store.kind[row]].name
            if end != end:  # NaN: unfinished
                continue
            if name == "colza.stage":
                stage_total += end - store.start[row]
                stages += 1
            elif name in last:
                last[name] = end - store.start[row]
        return cls(
            iteration=span.tags.get("iteration", -1),
            activate=last["colza.activate"],
            stage_total=stage_total,
            stage_mean=stage_total / stages if stages else 0.0,
            execute=last["colza.execute"],
            deactivate=last["colza.deactivate"],
            n_servers=span.tags.get("n_servers", 0),
        )


class ColzaExperiment:
    """End-to-end staging experiment at a given scale."""

    def __init__(
        self,
        n_servers: int,
        n_clients: int,
        script: CatalystScript,
        controller: str = "mona",
        mpi_profile: str = "craympich",
        server_procs_per_node: int = 1,
        client_nodes_offset: int = 40,
        clients_per_node: int = 16,
        width: int = 256,
        height: int = 256,
        swim_period: float = 0.25,
        seed: int = 0,
        nodes: int = 128,
        pipeline_name: str = "render",
        library: str = "libcolza-catalyst.so",
        extra_config: Optional[Dict[str, Any]] = None,
    ):
        self.sim = Simulation(seed=seed)
        self.cluster = Cluster(self.sim, nodes=nodes)
        self.deployment = Deployment(
            self.sim, cluster=self.cluster,
            swim_config=SwimConfig(period=swim_period),
        )
        self.n_servers = n_servers
        self.n_clients = n_clients
        self.script = script
        self.controller = controller
        self.mpi_profile = mpi_profile
        self.server_procs_per_node = server_procs_per_node
        self.client_nodes_offset = client_nodes_offset
        self.clients_per_node = clients_per_node
        self.width = width
        self.height = height
        self.pipeline_name = pipeline_name
        self.library = library
        #: Extra pipeline configuration merged into the deploy-time
        #: config dict (and into every elastic re-deploy). This is how
        #: experiments reach backend knobs the harness has no parameter
        #: for — e.g. the stats backend's ``bytes_per_second``.
        self.extra_config = dict(extra_config or {})
        self.handles: List = []
        self.clients: List = []
        self.client_margos: List = []
        self.mpi_world: Optional[MpiWorld] = None
        self.timings: List[IterationTiming] = []

    # ------------------------------------------------------------------
    def pipeline_config(self) -> Dict[str, Any]:
        """The config dict every pipeline deploy (initial and elastic)
        receives: harness parameters plus :attr:`extra_config`."""
        config: Dict[str, Any] = {
            "script": self.script,
            "controller": self.controller,
            "width": self.width,
            "height": self.height,
        }
        config.update(self.extra_config)
        return config

    def setup(self) -> "ColzaExperiment":
        sim = self.sim
        drive(
            sim,
            self.deployment.start_servers(
                self.n_servers, first_node=0, procs_per_node=self.server_procs_per_node
            ),
            max_time=600,
        )
        run_until(sim, self.deployment.converged, max_time=600)

        for i in range(self.n_clients):
            node = self.client_nodes_offset + i // self.clients_per_node
            margo, client = self.deployment.make_client(node_index=node)
            drive(sim, client.connect())
            self.client_margos.append(margo)
            self.clients.append(client)

        config = self.pipeline_config()
        if self.controller == "mpi":
            self._provision_mpi_world()
        drive(
            sim,
            self.deployment.deploy_pipeline(
                self.client_margos[0], self.pipeline_name, self.library, config
            ),
            max_time=600,
        )
        self.handles = [
            c.distributed_pipeline_handle(self.pipeline_name) for c in self.clients
        ]
        return self

    def _provision_mpi_world(self) -> None:
        daemons = sorted(self.deployment.live_daemons(), key=lambda d: d.address)
        self.mpi_world = MpiWorld(
            self.sim, self.deployment.fabric, len(daemons), profile=self.mpi_profile,
            procs_per_node=self.server_procs_per_node, first_node=0,
            name="colza-mpi-static",
        )
        for rank, daemon in enumerate(daemons):
            MPI_COMM_REGISTRY[daemon.margo.name] = self.mpi_world.comm_world(rank)

    # ------------------------------------------------------------------
    def add_server_with_pipeline(self, node_index: int) -> Generator:
        """Elastic scale-up: new daemon + pipeline instance (admin)."""
        daemons = yield from self.add_servers_with_pipeline(1, node_index)
        return daemons[0]

    def add_servers_with_pipeline(self, count: int, node_index: int) -> Generator:
        """Add ``count`` daemons on one node with a single srun, join
        them concurrently, then deploy the pipeline on each."""
        sim = self.sim
        yield sim.timeout(self.cluster.launcher.srun_delay(count))
        starts = []
        daemons = []
        for _ in range(count):
            task = sim.spawn(
                self.deployment.add_server(node_index, charge_launch=False),
                name="elastic-add",
            )
            starts.append(task.join())
        results = yield sim.all_of(starts)
        daemons.extend(results)
        admin = ColzaAdmin(self.client_margos[0])
        config = self.pipeline_config()
        for daemon in daemons:
            yield from admin.create_pipeline(
                daemon.address, self.pipeline_name, self.library, config
            )
        return daemons

    # ------------------------------------------------------------------
    def iteration_body(
        self, iteration: int, blocks_per_client: Sequence[ClientBlocks]
    ) -> Generator:
        """activate (2PC, client 0) -> concurrent stage -> execute -> deactivate.

        Returns ``(the colza.iteration span, frozen-view size)``."""
        sim = self.sim
        lead = self.handles[0]
        span = sim.trace.begin(
            "colza.iteration", pipeline=self.pipeline_name, iteration=iteration
        )
        try:
            yield from lead.activate(iteration)
            frozen = lead.frozen_view
            tasks = []
            for ci, blocks in enumerate(blocks_per_client):
                handle = self.handles[ci]
                handle.frozen_view = frozen
                tasks.append(
                    sim.spawn(self._stage_all(handle, iteration, blocks), name=f"stage-c{ci}")
                )
            if tasks:
                yield sim.all_of([t.join() for t in tasks])
            yield from lead.execute(iteration)
            yield from lead.deactivate(iteration)
        except BaseException as err:
            sim.trace.end(span, error=type(err).__name__)
            raise
        sim.trace.end(span, n_servers=len(frozen))
        return span, len(frozen)

    @staticmethod
    def _stage_all(handle, iteration: int, blocks: ClientBlocks) -> Generator:
        for block_id, payload in blocks:
            yield from handle.stage(iteration, block_id, payload, {"block_id": block_id})
        return None

    def run_iteration(
        self, iteration: int, blocks_per_client: Sequence[ClientBlocks]
    ) -> IterationTiming:
        """Drive one iteration to completion and derive its timing from
        the iteration's span subtree."""
        span, n_servers = drive(
            self.sim, self.iteration_body(iteration, blocks_per_client), max_time=100000
        )
        if span.recorded:
            timing = IterationTiming.from_span(span)
        else:  # tracing disabled: keep the pre-telemetry zero timings
            timing = IterationTiming(iteration, 0.0, 0.0, 0.0, 0.0, 0.0, n_servers)
        self.timings.append(timing)
        return timing

    # ------------------------------------------------------------------
    def autoscaler(
        self, slo: SloConfig, first_node: int, policy: Optional[ThresholdBand] = None
    ) -> SloAutoscaler:
        """The elasticity controller wired to this experiment's
        deployment, admin client and pipeline."""
        return SloAutoscaler(
            self.deployment, self.client_margos[0], self.library,
            self.pipeline_config(), pipeline=self.pipeline_name, slo=slo,
            first_node=first_node, policy=policy,
        )

    def run_controlled(
        self,
        blocks_per_iteration: Iterable[Sequence[ClientBlocks]],
        compute_seconds: float,
        controller: Optional[SloAutoscaler] = None,
    ) -> float:
        """The application loop of the autoscaling experiments: compute,
        run one in-situ iteration, step the controller (if any). Returns
        the server-seconds consumed — staging servers burn allocation
        while the application computes and while a resize is in flight."""
        sim = self.sim
        server_seconds = 0.0
        t_prev = sim.now
        for it, blocks in enumerate(blocks_per_iteration, start=1):
            sim.run(until=sim.now + compute_seconds)
            timing = self.run_iteration(it, blocks)
            server_seconds += timing.n_servers * (sim.now - t_prev)
            t_prev = sim.now
            if controller is not None:
                drive(sim, controller.step_from_trace(), max_time=600)
        return server_seconds
