"""Daemon bring-up and deployment orchestration.

:class:`ColzaDaemon` is one staging process: a Margo instance (RPC), a
MoNA instance (collectives), an SSG agent (membership), the Colza
provider, and the admin provider. Starting a daemon whose group file
already lists members performs an SSG *join* — the elastic path of
Fig. 4; :class:`Deployment` also implements the *static restart*
alternative (kill everything, relaunch at the new size) so the two can
be compared, plus client construction and admin conveniences used by
examples and benchmarks.
"""

from __future__ import annotations

import itertools
from typing import Generator, List, Optional, Tuple

from repro.core.admin import AdminProvider, ColzaAdmin
from repro.core.client import ColzaClient
from repro.core.provider import ColzaProvider
from repro.core.tenancy import DEFAULT_TENANT, TenancyConfig
from repro.margo import MargoInstance
from repro.mona import MonaInstance
from repro.na import Fabric, get_cost_model
from repro.sim import Simulation
from repro.sim.platform import Cluster
from repro.ssg import GroupFile, SSGAgent, SwimConfig, converged

__all__ = ["ColzaDaemon", "Deployment"]


class ColzaDaemon:
    """One staging-area process."""

    def __init__(
        self,
        sim: Simulation,
        fabric: Fabric,
        node_index: int,
        name: str,
        group_file: GroupFile,
        swim_config: Optional[SwimConfig] = None,
        tenancy: Optional[TenancyConfig] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.node_index = node_index
        self.name = name
        self.margo = MargoInstance(sim, fabric, name, node_index, get_cost_model("mona"))
        self.mona = MonaInstance(sim, fabric, name, node_index)
        self.agent = SSGAgent(self.margo, group_file, config=swim_config)
        self.provider = ColzaProvider(self.margo, self.agent, self.mona, tenancy=tenancy)
        self.admin = AdminProvider(self.margo, self.provider, daemon=self)
        if tenancy is not None:
            # SSG lifecycle hook: an elastically joining daemon adopts
            # the group's tenant roster before serving traffic.
            self.agent.on_joined.append(self.provider.sync_tenant_roster)
        self.running = False

    # ------------------------------------------------------------------
    @property
    def address(self):
        return self.margo.address

    def start(self, init_delay: float = 0.0) -> Generator:
        """Bring the service up and join (or found) the group."""
        if init_delay > 0:
            yield self.sim.timeout(init_delay)
        yield from self.agent.start()
        self.running = True
        return self

    def leave(self) -> Generator:
        """Graceful departure: announce LEFT, then tear down."""
        self.running = False
        yield from self.agent.leave()
        self.margo.finalize()
        self.mona.finalize()
        return None

    def crash(self) -> None:
        """Die without announcement (SWIM must detect it; the stale
        group-file entry stays behind, as it would on a real crash)."""
        self.running = False
        self.agent.stop(clean_group_file=False)
        self.margo.crash()
        self.mona.finalize()
        for key in list(self.provider._active):
            self.provider.end_activation(key, f"{self.name} crashed")


class Deployment:
    """Orchestrates a staging area on the cluster model.

    All methods that consume wall time are generators; launch latencies
    come from the cluster's :class:`~repro.sim.platform.LaunchModel`.
    """

    def __init__(
        self,
        sim: Simulation,
        cluster: Optional[Cluster] = None,
        fabric: Optional[Fabric] = None,
        swim_config: Optional[SwimConfig] = None,
        name_prefix: str = "colza",
        tenancy: Optional[TenancyConfig] = None,
    ):
        # Per-instance naming keeps runs deterministic: daemon names (and
        # the RNG streams derived from them) don't depend on how many
        # deployments existed earlier in the process. Use distinct
        # prefixes for multiple deployments sharing one fabric.
        self._names = itertools.count()
        self.name_prefix = name_prefix
        self.sim = sim
        self.cluster = cluster or Cluster(sim, nodes=64)
        self.fabric = fabric or Fabric(sim)
        self.swim_config = swim_config or SwimConfig()
        #: Multi-tenant policy applied to every daemon (None = legacy
        #: single-tenant behaviour, DESIGN §13).
        self.tenancy = tenancy
        self.group_file = GroupFile()
        self.daemons: List[ColzaDaemon] = []

    # ------------------------------------------------------------------
    def _new_daemon(self, node_index: int) -> ColzaDaemon:
        name = f"{self.name_prefix}-{next(self._names)}"
        self.cluster.place(name, node_index)
        return ColzaDaemon(
            self.sim, self.fabric, node_index, name, self.group_file,
            self.swim_config, tenancy=self.tenancy,
        )

    def live_daemons(self) -> List[ColzaDaemon]:
        return [d for d in self.daemons if d.running]

    def addresses(self) -> List:
        return sorted(d.address for d in self.live_daemons())

    def converged(self) -> bool:
        return converged([d.agent for d in self.live_daemons()])

    # ------------------------------------------------------------------
    def start_servers(
        self,
        count: int,
        first_node: int = 0,
        procs_per_node: int = 1,
        charge_launch: bool = True,
    ) -> Generator:
        """Gang-launch ``count`` daemons (one srun): founder first, then
        concurrent joins. Returns when all daemons are group members."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if charge_launch:
            yield self.sim.timeout(self.cluster.launcher.srun_delay(count))
        new = [
            self._new_daemon(first_node + i // procs_per_node) for i in range(count)
        ]
        self.daemons.extend(new)
        # Founder brings the group up; the rest join it concurrently.
        yield from new[0].start(init_delay=self.cluster.launcher.service_init_delay())
        tasks = [
            self.sim.spawn(
                d.start(init_delay=self.cluster.launcher.service_init_delay()),
                name=f"start-{d.name}",
            )
            for d in new[1:]
        ]
        if tasks:
            yield self.sim.all_of([t.join() for t in tasks])
        return new

    def add_server(self, node_index: int, charge_launch: bool = True) -> Generator:
        """Elastic scale-up: srun one daemon; it joins via the group file
        (the paper's job-script-driven addition, §II-F)."""
        if charge_launch:
            yield self.sim.timeout(self.cluster.launcher.srun_delay(1))
        daemon = self._new_daemon(node_index)
        self.daemons.append(daemon)
        yield from daemon.start(init_delay=self.cluster.launcher.service_init_delay())
        return daemon

    def static_restart(
        self,
        count: int,
        first_node: int = 0,
        procs_per_node: int = 1,
    ) -> Generator:
        """Kill the whole staging area and relaunch at ``count`` daemons
        (the paper's non-elastic alternative in Fig. 4)."""
        for daemon in self.live_daemons():
            daemon.crash()
        self.daemons.clear()
        self.group_file.addresses.clear()
        yield self.sim.timeout(self.cluster.launcher.kill_delay())
        result = yield from self.start_servers(
            count, first_node=first_node, procs_per_node=procs_per_node
        )
        return result

    # ------------------------------------------------------------------
    def make_client(
        self,
        node_index: int,
        name: Optional[str] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Tuple[MargoInstance, ColzaClient]:
        """A client Margo instance + connected-later ColzaClient."""
        client_name = name or f"{self.name_prefix}-client-{next(self._names)}"
        self.cluster.place(client_name, node_index)
        margo = MargoInstance(
            self.sim, self.fabric, client_name, node_index, get_cost_model("mona")
        )
        return margo, ColzaClient(margo, self.group_file, tenant=tenant)

    def deploy_pipeline(
        self,
        admin_margo: MargoInstance,
        name: str,
        library: str,
        config: Optional[dict] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Generator:
        """Create the pipeline on every current member."""
        admin = ColzaAdmin(admin_margo, tenant=tenant)
        result = yield from admin.create_pipeline_everywhere(
            self.addresses(), name, library, config
        )
        return result
