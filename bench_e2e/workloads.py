"""The four end-to-end workloads.

Every workload drives the whole stack through public entry points only
(the pinned API surface is listed in ``README.md``) and has the same
shape: ``make_inputs`` (seeded, nothing but NumPy and ``repro.apps``),
``setup`` (servers converged, clients connected, pipelines deployed)
and ``run`` (the timed section: a fixed number of iterations or cycles,
one closed loop — the next operation starts when the previous one
returned). Iteration counts are part of the workload definition: the
per-iteration host cost depends on how many iterations already ran.

Sizes are chosen so a timed section is about two CPU-seconds; see
``README.md`` for what that scales down relative to the paper.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Sequence, Tuple

import numpy as np

from repro.apps import DWIDataset, GrayScottParams, GrayScottSolver
from repro.bench.harness import ColzaExperiment
from repro.core import ColzaAdmin, Deployment, TenancyConfig, TenantQuota
from repro.core.pipelines import DWIVolumeScript, IsoSurfaceScript
from repro.na import VirtualPayload
from repro.sim import Simulation
from repro.sim.platform import Cluster
from repro.ssg import SwimConfig
from repro.testing import drive, run_until
from repro.vtk import ImageData
from repro.vtk.render import Camera

from bench_e2e.trace import PhaseRecorder

__all__ = ["WORKLOADS", "Workload", "rank0_results"]

Blocks = List[Tuple[int, Any]]


def rank0_results(deployment: Deployment, wire_name: str) -> Dict[str, Any]:
    """``last_results`` of the pipeline on the lowest-address live server
    (rank 0 of the compositing tree holds the final image)."""
    rank0 = min(deployment.live_daemons(), key=lambda d: d.address)
    return rank0.provider.pipelines[wire_name].last_results


def _jittered_shape(rng: np.random.Generator, shape: Tuple[int, ...], span: int) -> Tuple[int, ...]:
    """``shape`` with up to ``span - 1`` taken off its last axis: virtual
    blocks carry no data, so the seed shows in their declared sizes."""
    return shape[:-1] + (shape[-1] - int(rng.integers(0, span)),)


class Workload:
    """Base class; subclasses fill in the three stages."""

    name = ""
    why = ""
    #: Wire name of the pipeline whose rank-0 image is the output.
    pipelines: Sequence[str] = ("render",)
    replication_factor = 1

    def __init__(self, seed: int, quick: bool, phases: PhaseRecorder):
        self.seed = seed
        self.quick = quick
        self.phases = phases
        self.sim: Simulation = None  # type: ignore[assignment]
        self.deployment: Deployment = None  # type: ignore[assignment]
        #: Operations completed without raising (iterations per tenant,
        #: resizes, recoveries).
        self.ops_done = 0
        #: Facts the output checks read (see ``checks.py``).
        self.facts: Dict[str, Any] = {}

    # -- sizing ---------------------------------------------------------
    def _count(self, full: int) -> int:
        """Iterations (or cycles): a quarter of the full count in ``--quick``."""
        return max(full // 4, 1) if self.quick else full

    @property
    def iterations(self) -> int:
        raise NotImplementedError

    @property
    def planned_ops(self) -> int:
        return self.iterations

    @property
    def sizes(self) -> Dict[str, Any]:
        """Recorded in every output file."""
        return {"iterations": self.iterations}

    @property
    def expected_blocks_staged(self) -> int:
        """Blocks the clients send in the timed section."""
        raise NotImplementedError

    # -- stages ---------------------------------------------------------
    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Extra work some output checks need (outside the timed section)."""

    def final_images(self) -> List[Any]:
        return [rank0_results(self.deployment, p)["image"] for p in self.pipelines]

    def _attach(self, sim: Simulation, deployment: Deployment) -> None:
        self.sim = sim
        self.deployment = deployment
        self.phases.sim = sim


class _HarnessWorkload(Workload):
    """A steady-state workload run through :class:`ColzaExperiment`."""

    exp: ColzaExperiment
    #: blocks_per_client for each iteration.
    inputs: List[List[Blocks]]
    #: Block ids of the ballast blocks start here.
    BALLAST_ID = 1000

    def _experiment(self) -> ColzaExperiment:
        raise NotImplementedError

    @property
    def expected_blocks_staged(self) -> int:
        return sum(len(blocks) for per_client in self.inputs for blocks in per_client)

    def _ballast(self, n_clients: int) -> Blocks:
        """One small virtual block per client, its size drawn from the
        seed. Real arrays have fixed sizes for a fixed grid, and nothing
        else in a steady-state run is random, so without these no
        simulated time or wire byte would depend on the seed at all."""
        rng = np.random.default_rng(self.seed)
        return [
            (self.BALLAST_ID + c, VirtualPayload(_jittered_shape(rng, (2048,), 256), "float64"))
            for c in range(n_clients)
        ]

    def setup(self) -> None:
        self.exp = self._experiment()
        self._attach(self.exp.sim, self.exp.deployment)
        self.exp.setup()

    def run(self) -> None:
        for it in range(1, self.iterations + 1):
            with self.phases.span("iteration", iteration=it):
                self.exp.run_iteration(it, self.inputs[it - 1])
            self.ops_done += 1
            self._after_iteration(it)

    def _after_iteration(self, it: int) -> None:
        pass


# ---------------------------------------------------------------------------
class GsIsoReal(_HarnessWorkload):
    name = "gs_iso_real"
    why = (
        "Fig 3a pipeline on real, time-evolving Gray-Scott data: vtk filters and "
        "the rasteriser do nearly all host work, the control plane almost none."
    )

    GRID = 32
    WARM_STEPS = 90
    STEPS_PER_RENDER = 10
    N_SERVERS = 4
    SIZE = 256
    PARAMS = dict(F=0.03, k=0.055, dt=2.0, noise=0.02)

    @property
    def iterations(self) -> int:
        return self._count(6)

    @property
    def sizes(self) -> Dict[str, Any]:
        return {"iterations": self.iterations, "grid": self.GRID, "servers": self.N_SERVERS,
                "clients": 8, "image": self.SIZE}

    def _script(self) -> IsoSurfaceScript:
        half = self.GRID / 2
        return IsoSurfaceScript(
            field="v", isovalues=[0.12, 0.25], clip=((half, 0.0, 0.0), (1.0, 0.0, 0.0))
        )

    def _config(self) -> Dict[str, Any]:
        # A fixed camera on the central half of the domain, where the
        # pattern grows: the frame then does not depend on which blocks
        # happen to hold surface, and the 1-server oracle sees the same.
        g = float(self.GRID)
        return {"camera": Camera.fit((g / 4, 3 * g / 4) * 3)}

    def _cut(self, v: np.ndarray) -> List[Blocks]:
        """2x2x2 blocks sharing one layer of points, one per client."""
        g, half = self.GRID, self.GRID // 2
        ranges = [(0, half + 1), (half, g)]
        per_client: List[Blocks] = []
        for x0, x1 in ranges:
            for y0, y1 in ranges:
                for z0, z1 in ranges:
                    block = ImageData(
                        dims=(x1 - x0, y1 - y0, z1 - z0),
                        origin=(float(x0), float(y0), float(z0)),
                        spacing=(1.0, 1.0, 1.0),
                    )
                    block.set_field("v", v[x0:x1, y0:y1, z0:z1].copy())
                    per_client.append([(len(per_client), block)])
        return per_client

    def make_inputs(self) -> None:
        g = self.GRID
        solver = GrayScottSolver((g, g, g), params=GrayScottParams(seed=self.seed, **self.PARAMS))
        for _ in range(self.WARM_STEPS):
            solver.step_local()
        self.inputs = []
        #: First and last composited image, kept for the oracle check.
        self._staged_images: Dict[int, Any] = {}
        ballast = self._ballast(8)
        for _ in range(self.iterations):
            for _ in range(self.STEPS_PER_RENDER):
                solver.step_local()
            per_client = self._cut(solver.v[1:-1, 1:-1, 1:-1])
            self.inputs.append([blocks + [extra] for blocks, extra in zip(per_client, ballast)])

    def _experiment(self) -> ColzaExperiment:
        return ColzaExperiment(
            n_servers=self.N_SERVERS, n_clients=8, script=self._script(),
            width=self.SIZE, height=self.SIZE, seed=self.seed,
            library="libcolza-iso.so", extra_config=self._config(),
        )

    def _triangles(self) -> int:
        return sum(
            d.provider.pipelines["render"].last_results["local_triangles"]
            for d in self.deployment.live_daemons()
        )

    def _after_iteration(self, it: int) -> None:
        self.facts.setdefault("triangles", []).append(self._triangles())
        if it in (1, self.iterations):
            image = rank0_results(self.deployment, "render")["image"]
            self._staged_images[it] = image.copy()
            self.facts.setdefault("coverage", []).append(image.coverage())

    def verify(self) -> None:
        """The in-situ oracle: the same script on ONE server fed the same
        blocks must composite to the same image (in-transit == in-situ)."""
        oracle = ColzaExperiment(
            n_servers=1, n_clients=1, script=self._script(),
            width=self.SIZE, height=self.SIZE, seed=self.seed,
            library="libcolza-iso.so", extra_config=self._config(),
        ).setup()
        diffs = self.facts.setdefault("oracle_max_abs_diff", [])
        for it, staged in sorted(self._staged_images.items()):
            blocks = [b for client in self.inputs[it - 1] for b in client]
            oracle.run_iteration(it, [blocks])
            reference = rank0_results(oracle.deployment, "render")["image"]
            diffs.append(float(np.abs(staged.rgba - reference.rgba).max()))


# ---------------------------------------------------------------------------
class DwiVolumeReal(_HarnessWorkload):
    name = "dwi_volume_real"
    why = (
        "Same vtk/icet layers used differently: merge, resample, ray-march and ordered "
        "alpha-over on real growing DWI meshes; a compositor change that costs this path shows here."
    )

    PARTITIONS = 16
    SCALE = 3e4
    N_SERVERS = 4
    N_CLIENTS = 8
    SIZE = 128
    GRID = (32, 32, 32)

    @property
    def iterations(self) -> int:
        return self._count(4)

    @property
    def snapshots(self) -> List[int]:
        """Ensemble snapshots rendered, spread over the 30 so the mesh grows."""
        n = self.iterations
        return [1 + round(i * 29 / max(n - 1, 1)) for i in range(n)]

    @property
    def sizes(self) -> Dict[str, Any]:
        return {"iterations": self.iterations, "snapshots": self.snapshots,
                "partitions": self.PARTITIONS, "servers": self.N_SERVERS,
                "clients": self.N_CLIENTS, "image": self.SIZE}

    def make_inputs(self) -> None:
        dataset = DWIDataset(partitions=self.PARTITIONS, seed=self.seed)
        ballast = self._ballast(self.N_CLIENTS)
        # The volume script prices a virtual block at 50 bytes per cell.
        ballast_cells = sum(payload.nbytes // 50 for _, payload in ballast)
        self.inputs = []
        cells = []
        for snapshot in self.snapshots:
            meshes = [dataset.real_file(snapshot, p, scale=self.SCALE)
                      for p in range(self.PARTITIONS)]
            cells.append(sum(m.num_cells for m in meshes) + ballast_cells)
            self.inputs.append([
                [(p, meshes[p]) for p in range(c, self.PARTITIONS, self.N_CLIENTS)] + [ballast[c]]
                for c in range(self.N_CLIENTS)
            ])
        self.facts["cells_generated"] = cells

    def _experiment(self) -> ColzaExperiment:
        return ColzaExperiment(
            n_servers=self.N_SERVERS, n_clients=self.N_CLIENTS,
            script=DWIVolumeScript(field="velocity", grid_dims=self.GRID),
            width=self.SIZE, height=self.SIZE, seed=self.seed, library="libcolza-dwi.so",
        )

    def _after_iteration(self, it: int) -> None:
        staged = sum(
            d.provider.pipelines["render"].last_results["local_cells"]
            for d in self.deployment.live_daemons()
        )
        self.facts.setdefault("cells_staged", []).append(staged)


# ---------------------------------------------------------------------------
class MbScaleVirtual(_HarnessWorkload):
    name = "mb_scale_virtual"
    why = (
        "Fig 5 at one scale with virtual blocks: DES events, messages, spans and a "
        "many-rank binary-swap dominate; vtk filters do nothing, so real-data gains must not show."
    )

    N_SERVERS = 32
    CLIENTS_PER_SERVER = 4
    BLOCKS_PER_CLIENT = 4
    BLOCK = (128, 128, 128)
    SIZE = 256

    @property
    def iterations(self) -> int:
        return self._count(5)

    @property
    def n_clients(self) -> int:
        return self.N_SERVERS * self.CLIENTS_PER_SERVER

    @property
    def sizes(self) -> Dict[str, Any]:
        return {"iterations": self.iterations, "servers": self.N_SERVERS,
                "clients": self.n_clients, "blocks_per_client": self.BLOCKS_PER_CLIENT,
                "image": self.SIZE}

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        per_client: List[Blocks] = []
        for c in range(self.n_clients):
            per_client.append([
                (c * self.BLOCKS_PER_CLIENT + b,
                 VirtualPayload(_jittered_shape(rng, self.BLOCK, 4), "int32"))
                for b in range(self.BLOCKS_PER_CLIENT)
            ])
        self.inputs = [per_client] * self.iterations

    def _experiment(self) -> ColzaExperiment:
        return ColzaExperiment(
            n_servers=self.N_SERVERS, n_clients=self.n_clients,
            script=IsoSurfaceScript(field="iterations", isovalues=[4.0]),
            controller="mona", server_procs_per_node=4, clients_per_node=32,
            client_nodes_offset=64, swim_period=0.5, seed=self.seed, nodes=128,
            width=self.SIZE, height=self.SIZE,
        )


# ---------------------------------------------------------------------------
class ElasticTenants(Workload):
    name = "elastic_tenants"
    why = (
        "Grow, crash-recover from replicas, shrink, with two tenants sharing the servers: "
        "the only workload where ssg churn, 2PC re-agreement, replication and recovery run."
    )

    TENANTS = ("alpha", "beta")
    BASE_SERVERS = 16
    GROW = 4
    PROCS_PER_NODE = 4
    BLOCKS = 24
    BLOCK = (512, 512)  # float32: 1 MiB
    SIZE = 128
    LIBRARY = "libcolza-iso.so"
    replication_factor = 2
    SWIM = SwimConfig(period=0.2, suspect_timeout=1.0)
    #: An indirect probe lives at most ping_timeout + ping_req_timeout;
    #: two protocol periods cover it with room to spare.
    PROBE_DRAIN_S = 2 * SWIM.period
    #: Operations per cycle: 2 resizes, 1 recovery, and three rounds of
    #: one iteration per tenant (a clean one, the crashed one, one at base size).
    OPS_PER_CYCLE = 2 + 1 + 3 * len(TENANTS)

    @property
    def iterations(self) -> int:
        """Tenant-iterations in the timed section."""
        return self.cycles * 3 * len(self.TENANTS)

    @property
    def cycles(self) -> int:
        return self._count(2)

    @property
    def planned_ops(self) -> int:
        return self.cycles * self.OPS_PER_CYCLE

    @property
    def expected_blocks_staged(self) -> int:
        # No re-stage: every crash is absorbed by the replicas.
        return self.iterations * self.BLOCKS

    @property
    def pipelines(self) -> List[str]:  # type: ignore[override]
        return [self.sessions[t]["client"].qualified("render") for t in self.TENANTS]

    @property
    def sizes(self) -> Dict[str, Any]:
        return {"cycles": self.cycles, "iterations": self.iterations,
                "base_servers": self.BASE_SERVERS, "grow": self.GROW,
                "tenants": len(self.TENANTS), "blocks_per_tenant": self.BLOCKS,
                "image": self.SIZE}

    # ------------------------------------------------------------------
    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.blocks: Dict[str, Blocks] = {
            tenant: [(b, VirtualPayload(_jittered_shape(rng, self.BLOCK, 16), "float32"))
                     for b in range(self.BLOCKS)]
            for tenant in self.TENANTS
        }

    def _config(self) -> Dict[str, Any]:
        return {
            "script": IsoSurfaceScript(field="iterations", isovalues=[4.0]),
            "width": self.SIZE, "height": self.SIZE,
            "replication_factor": self.replication_factor,
        }

    def setup(self) -> None:
        sim = Simulation(seed=self.seed)
        tenancy = TenancyConfig(
            max_tenants=4, fair_share=True,
            # Enforced on every stage but sized not to bind: a binding
            # quota would turn into refused stages, and a workload may
            # not contain operations that fail.
            quotas={"beta": TenantQuota(max_blocks=self.BLOCKS)},
        )
        deployment = Deployment(
            sim, cluster=Cluster(sim, nodes=64),
            swim_config=self.SWIM, tenancy=tenancy,
        )
        self._attach(sim, deployment)
        drive(sim, deployment.start_servers(self.BASE_SERVERS, procs_per_node=self.PROCS_PER_NODE),
              max_time=600)
        run_until(sim, deployment.converged, max_time=600)
        self.sessions: Dict[str, Dict[str, Any]] = {}
        config = self._config()
        for i, tenant in enumerate(self.TENANTS):
            margo, client = deployment.make_client(node_index=40 + i, tenant=tenant)
            drive(sim, client.connect())
            drive(sim, client.attach())
            drive(sim, deployment.deploy_pipeline(margo, "render", self.LIBRARY, config,
                                                  tenant=tenant), max_time=600)
            handle = client.distributed_pipeline_handle("render")
            # Deadlines on the data plane: an RPC in flight to the
            # crashed server must turn into a retry, not a stuck client.
            # The first execute pays ~8 s of simulated library init.
            handle.stage_timeout = 2.0
            handle.data_timeout = 30.0
            self.sessions[tenant] = {
                "client": client, "admin": ColzaAdmin(margo, tenant=tenant), "handle": handle,
            }
        self._iteration = 0
        self._next_node = self.BASE_SERVERS // self.PROCS_PER_NODE

    # ------------------------------------------------------------------
    def _grow(self) -> List[Any]:
        """GROW daemons launched at once on a fresh node, each its own
        single-daemon srun (the paper's job-script-driven addition), then
        every tenant's pipeline created on each; done when the view has
        converged."""
        sim, deployment = self.sim, self.deployment
        node = self._next_node
        self._next_node += 1

        def body() -> Generator:
            joins = [
                sim.spawn(deployment.add_server(node), name="grow").join()
                for _ in range(self.GROW)
            ]
            daemons = yield sim.all_of(joins)
            config = self._config()
            for tenant in self.TENANTS:
                admin = self.sessions[tenant]["admin"]
                for daemon in daemons:
                    yield from admin.create_pipeline(daemon.address, "render", self.LIBRARY, config)
            return daemons

        daemons = drive(sim, body(), max_time=600)
        run_until(sim, deployment.converged, max_time=600)
        return daemons

    def _iterate(self) -> float:
        """Both tenants run one resilient iteration concurrently; returns
        the simulated time at which the later of the two completed."""
        sim = self.sim
        self._iteration += 1
        finished: List[float] = []

        def body(tenant: str) -> Generator:
            yield from self.sessions[tenant]["handle"].run_resilient_iteration(
                self._iteration, self.blocks[tenant], max_attempts=8)
            finished.append(sim.now)

        tasks = [sim.spawn(body(t), name=f"tenant-{t}") for t in self.TENANTS]
        run_until(sim, lambda: all(t.finished for t in tasks), max_time=3000)
        for task in tasks:
            task.done.value  # re-raises a failed iteration
        self.ops_done += len(tasks)
        return max(finished)

    def _arm_crash(self, victim: Any, crashed_at: List[float]) -> None:
        """Kill ``victim`` the instant the first tenant's last block of
        the next iteration has landed (as examples/fault_tolerance.py)."""
        sim = self.sim
        wire = self.sessions[self.TENANTS[0]]["handle"].name
        iteration, last = self._iteration + 1, self.BLOCKS - 1

        def crash_after_last_stage(span: Any) -> None:
            tags = span.tags
            if (span.name == "colza.stage" and tags.get("pipeline") == wire
                    and tags.get("iteration") == iteration and tags.get("block") == last):
                sim.trace.on_end.remove(crash_after_last_stage)
                crashed_at.append(sim.now)
                victim.crash()

        sim.trace.on_end.append(crash_after_last_stage)

    def _shrink(self, daemons: Sequence[Any]) -> None:
        """Leave one at a time. Before each leave the view must have
        converged and indirect probes still in flight must have drained:
        a server that departs while proxying a ``ping_req`` answers from
        a deregistered endpoint, and that ``NAError`` takes the kernel
        down (README, known hazards). The workload must not paper over
        that by catching it."""
        sim = self.sim
        admin = self.sessions[self.TENANTS[0]]["admin"]
        for daemon in daemons:
            run_until(sim, self.deployment.converged, max_time=600)
            sim.run(until=sim.now + self.PROBE_DRAIN_S)
            drive(sim, admin.request_leave(daemon.address), max_time=600)
            run_until(sim, lambda d=daemon: not d.running and self.deployment.converged(),
                      max_time=600)

    def _core(self, name: str) -> float:
        return self.sim.metrics.scope("core").counter(name).value

    def run(self) -> None:
        phases = self.phases
        cycles = self.facts.setdefault("cycles", [])
        counters = ("blocks_recovered", "restage_fallbacks", "blocks_staged")
        for cycle in range(1, self.cycles + 1):
            with phases.span("resize", cycle=cycle, direction="grow") as grow:
                new = self._grow()
            self.ops_done += 1
            # A clean iteration first: the joined servers run their first
            # execute (8 s of simulated library init) undisturbed. A crash
            # landing inside that window wedges them (README, known hazards).
            with phases.span("iteration", cycle=cycle, at="grown"):
                self._iterate()
            before = {n: self._core(n) for n in counters}
            crashed_at: List[float] = []
            self._arm_crash(new[-1], crashed_at)
            with phases.span("recover", cycle=cycle):
                recovered_at = self._iterate()
            if not crashed_at:
                raise RuntimeError("the crash hook never fired")
            self.ops_done += 1  # the recovery itself
            crash_round = {n: self._core(n) - before[n] for n in counters}
            with phases.span("resize", cycle=cycle, direction="shrink"):
                self._shrink(new[:-1])
            self.ops_done += 1
            with phases.span("iteration", cycle=cycle, at="base"):
                self._iterate()
            cycles.append({
                "sim_resize_s": grow.sim,
                "sim_recover_s": recovered_at - crashed_at[0],
                "blocks_recovered": crash_round["blocks_recovered"],
                "restage_fallbacks": crash_round["restage_fallbacks"],
                "client_restages": crash_round["blocks_staged"] - len(self.TENANTS) * self.BLOCKS,
                "servers_after": len(self.deployment.live_daemons()),
            })


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (GsIsoReal, DwiVolumeReal, MbScaleVirtual, ElasticTenants)
}
