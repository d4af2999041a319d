"""The Colza provider: pipelines + membership + 2PC on the server side.

One provider runs in each staging process. It exports the data-plane
RPCs (`activate` 2PC, `stage`, `execute`, `deactivate`, `get_view`)
under the ``"colza"`` provider name; the management RPCs live in the
separate admin provider (:mod:`repro.core.admin`), mirroring the
paper's split between the client library and the admin library.

Freezing (§II-B): between a committed ``activate`` and its
``deactivate``, the provider treats membership as frozen — leave
requests are deferred and joins, though visible to SSG, only enter the
pipeline's communicator at the *next* activate.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.analysis.simtsan import Shared
from repro.core.backend import Backend, StagedBlock, create_backend
from repro.core.replication import ReplicaStore, recover_iteration, replicate_block
from repro.core.tenancy import TenancyConfig, TenantRegistry, tenant_of
from repro.margo import MargoInstance, Provider
from repro.mercury import RpcError
from repro.na.address import Address
from repro.na.payload import MemoryHandle
from repro.ssg import SSGAgent
from repro.telemetry.metrics import Counter, MetricScope

__all__ = ["ColzaProvider", "mona_address_of"]


def mona_address_of(margo_addr: Address) -> Address:
    """The MoNA endpoint address of the daemon behind a Margo address.

    Daemons register their Margo endpoint as ``<name>`` and their MoNA
    endpoint as ``mona-<name>`` on the same node, so the mapping is a
    pure function — every member can derive the communicator address
    list from the SSG view without extra communication.
    """
    prefix, name = margo_addr.uri.rsplit("/", 1)
    return Address(f"{prefix}/mona-{name}")


class _Counters:
    """The provider's event counters in one metric scope: ``core`` for
    the totals, ``tenant.<name>`` per tenant. Each is registered at its
    first increment — a counter appears in the snapshot once it has
    counted, as when every event looked it up — and held from then on."""

    def __init__(self, scope: MetricScope):
        self._scope = scope

    @cached_property
    def activations_committed(self) -> Counter:
        return self._scope.counter("activations_committed")

    @cached_property
    def blocks_staged(self) -> Counter:
        return self._scope.counter("blocks_staged")

    @cached_property
    def bytes_staged(self) -> Counter:
        return self._scope.counter("bytes_staged")

    @cached_property
    def executes(self) -> Counter:
        return self._scope.counter("executes")

    @cached_property
    def blocks_replicated(self) -> Counter:
        return self._scope.counter("blocks_replicated")

    @cached_property
    def replica_bytes(self) -> Counter:
        return self._scope.counter("replica_bytes")


class ColzaProvider(Provider):
    """Per-process Colza service."""

    #: Budget for forwarding one block to a buddy replica (an RDMA
    #: pull on the buddy's side, so sized like a data-plane transfer).
    REPLICATE_TIMEOUT = 5.0
    #: Budget for one inventory / fetch_block exchange during the
    #: recovery phase of a re-activation. Peers that were in the
    #: agreed view are alive (SWIM evicted the dead before prepare
    #: succeeded), so this only bounds a crash *during* recovery.
    RECOVERY_TIMEOUT = 2.0

    def __init__(
        self,
        margo: MargoInstance,
        agent: SSGAgent,
        mona_instance,
        tenancy: Optional[TenancyConfig] = None,
    ):
        super().__init__(margo, "colza")
        self.agent = agent
        self.mona = mona_instance
        # The three shared tables cross-task handlers race on are
        # SimTSan-observable (plain dicts until a detector is
        # installed; see repro.analysis.simtsan).
        addr = margo.address
        self.pipelines: Dict[str, Backend] = Shared(
            sim=margo.sim, label=f"colza.pipelines@{addr}"
        )
        #: (pipeline, iteration) -> activation epoch. The epoch token
        #: lets long-running handlers (e.g. a stage blocked mid-RDMA)
        #: detect that their iteration was deactivated — or aborted and
        #: re-activated — while they were suspended.
        self._active: Dict[Tuple[str, int], int] = Shared(
            sim=margo.sim, label=f"colza.active@{addr}"
        )
        self._epochs = itertools.count(1)
        #: (pipeline, iteration) -> prepared view from 2PC phase 1.
        self._prepared: Dict[Tuple[str, int], Tuple[Address, ...]] = Shared(
            sim=margo.sim, label=f"colza.prepared@{addr}"
        )
        #: Buddy copies of other members' staged blocks (DESIGN §11).
        self.replicas = ReplicaStore(sim=margo.sim, label=f"colza.replicas@{addr}")
        #: Tenant admission + quota accounting (DESIGN §13). With no
        #: explicit config every tenant is admitted unlimited and the
        #: legacy single-tenant behaviour is unchanged.
        self.tenants = TenantRegistry(
            margo.sim, tenancy, label=f"colza.tenants@{addr}"
        )
        if tenancy is not None and tenancy.fair_share:
            margo.xstream.enable_fair_share()
        #: Leave was requested while frozen; honored at deactivate.
        self._leave_deferred = False
        self.leaving = False
        #: Membership-change log (events observed via SSG).
        self.membership_events: List[Tuple[float, str, Address]] = []
        #: Event counters: the ``core`` totals, and per tenant (made at
        #: the tenant's first event here).
        self._core_counters = _Counters(margo.sim.metrics.scope("core"))
        self._tenant_counters: Dict[str, _Counters] = {}

        #: Called (by the admin provider) when a deferred leave becomes
        #: actionable at deactivate time.
        self.on_ready_to_leave = None

        self.export("activate_prepare", self._rpc_activate_prepare)
        self.export("migrate", self._rpc_migrate)
        self.export("activate_commit", self._rpc_activate_commit)
        self.export("activate_abort", self._rpc_activate_abort)
        self.export("stage", self._rpc_stage)
        self.export("execute", self._rpc_execute)
        self.export("deactivate", self._rpc_deactivate)
        self.export("get_view", self._rpc_get_view)
        self.export("replicate", self._rpc_replicate)
        self.export("inventory", self._rpc_inventory)
        self.export("fetch_block", self._rpc_fetch_block)
        self.export("tenant_attach", self._rpc_tenant_attach)
        self.export("tenant_detach", self._rpc_tenant_detach)
        self.export("tenant_roster", self._rpc_tenant_roster)

        # React to membership changes (the paper's registered callbacks).
        agent.observer = self._on_membership_change

    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        return self.margo.address

    def view(self) -> List[Address]:
        """This server's (eventually consistent) membership view."""
        return self.agent.members()

    @property
    def frozen(self) -> bool:
        return bool(self._active)

    def _on_membership_change(self, event: str, member: Address) -> None:
        self.membership_events.append((self.margo.sim.now, event, member))
        if event != "died":
            return
        # Fault tolerance: a member crashed. Any pipeline whose frozen
        # view contains it can never finish its collectives — abort the
        # execution so the client gets an error instead of a hang. The
        # activation lives on (a stage racing the death keeps its epoch).
        for key in list(self._active):
            name, _iteration = key
            pipeline = self.pipelines.get(name)
            if pipeline is not None and member in pipeline.current_view:
                self.margo.sim.trace.add("colza.abort_on_death")
                pipeline.abort_execution(f"member {member} died")

    def end_activation(self, key: Tuple[str, int], reason: str) -> bool:
        """End one activation and any execution of it: the only way out of
        ``_active`` (deactivate, tenant detach, crash). True if it was."""
        if self._active.pop(key, None) is None:
            return False
        if key[0] in self.pipelines:
            self.pipelines[key[0]].abort_execution(reason)
        return True

    # ------------------------------------------------------------------
    # pipeline management (called by the admin provider)
    def create_pipeline(self, library: str, name: str, config: Optional[dict] = None) -> Backend:
        if name in self.pipelines:
            raise ValueError(f"pipeline {name!r} already exists")
        backend = create_backend(library, self.margo, name, config)
        backend.provider = self  # back-reference for comm building
        self.pipelines[name] = backend
        return backend

    def destroy_pipeline(self, name: str) -> None:
        backend = self.pipelines.pop(name, None)
        if backend is not None:
            backend.destroy()
            self.replicas.drop_pipeline(name)
            self.tenants.release_pipeline(name)

    def request_leave(self) -> bool:
        """Ask this server to leave; deferred while frozen.

        Returns True if the leave happens now, False if deferred.
        """
        if self.frozen:
            self._leave_deferred = True
            return False
        self.leaving = True
        return True

    def _counters_of(self, tenant: str) -> _Counters:
        counters = self._tenant_counters.get(tenant)
        if counters is None:
            scope = self.margo.sim.metrics.scope(f"tenant.{tenant}")
            counters = self._tenant_counters[tenant] = _Counters(scope)
        return counters

    # ------------------------------------------------------------------
    # tenancy (DESIGN §13)
    def _stamp_tenant(self, name: str) -> str:
        """Attribute the current handler task to the pipeline's tenant.

        The stamp is what fair-share xstream scheduling groups by; it is
        inherited by any ULT the handler spawns (backend collectives,
        replica forwards), so a tenant's whole execute tree shares one
        round-robin slot.
        """
        tenant = tenant_of(name)
        task = self.margo.sim.current_task
        if task is not None:
            task.tenant = tenant
        return tenant

    def _rpc_tenant_attach(self, input: dict) -> Generator:
        yield self.margo.sim.timeout(0)
        ok, reason = self.tenants.admit(input["tenant"])
        return {"status": "attached" if ok else "rejected", "reason": reason}

    def _rpc_tenant_detach(self, input: dict) -> Generator:
        """Evict one tenant: its pipelines, staged data, replicas and
        quota charges go; every other tenant's state is untouched
        (their pipelines are not even visible under this tenant's
        qualified names)."""
        yield self.margo.sim.timeout(0)
        tenant = input["tenant"]
        owned = sorted(
            pname for pname in self.pipelines if tenant_of(pname) == tenant
        )
        for pname in owned:
            for key in sorted(k for k in self._active if k[0] == pname):
                self.end_activation(key, f"tenant {tenant} detached")
            for key in sorted(k for k in self._prepared if k[0] == pname):
                self._prepared.pop(key, None)
            self.destroy_pipeline(pname)
        known = self.tenants.detach(tenant)
        return {
            "status": "detached" if known else "not-attached",
            "pipelines_dropped": owned,
        }

    def _rpc_tenant_roster(self, _input: Any) -> Generator:
        """Admitted tenants here — pulled by elastically joining daemons
        so an established tenant never flaps back through admission on a
        grown group (see ColzaDaemon)."""
        yield self.margo.sim.timeout(0)
        return self.tenants.tenants()

    def sync_tenant_roster(self, joined: bool) -> Generator:
        """SSG post-join hook: adopt a peer's tenant roster (DESIGN §13).

        An elastically added server would otherwise admit tenants lazily
        in whatever order their activates arrive — under a full
        admission table, a tenant attached before the join could lose
        its slot to a later arrival on the new member only, wedging its
        activates with split ``tenant-rejected`` votes. Pulling the
        roster once at join time keeps admission decisions uniform
        across the group. Registered only on tenancy-configured
        daemons, so legacy deployments' join path is untouched.
        """
        if not joined:
            return None
        peers = [a for a in self.view() if a != self.address]
        for peer in sorted(peers):
            try:
                roster = yield from self.margo.provider_call(
                    peer, "colza", "tenant_roster", {},
                    timeout=self.RECOVERY_TIMEOUT,
                )
            except RpcError:
                continue
            for tenant in roster:
                self.tenants.admit(tenant)
            return None
        return None

    # ------------------------------------------------------------------
    # 2PC (client-coordinated)
    def _rpc_activate_prepare(self, input: dict) -> Generator:
        yield self.margo.sim.timeout(0)
        if "gone" in input:
            # The coordinator relays terminal SWIM records some member
            # told it (R3): take them before comparing views.
            self.agent.apply_tombstones(input["gone"])
        name = input["pipeline"]
        iteration = input["iteration"]
        proposed: Tuple[Address, ...] = tuple(input["view"])
        if name not in self.pipelines:
            return {"vote": "no", "reason": "no-such-pipeline", "view": self.view()}
        ok, _reason = self.tenants.admit(tenant_of(name))
        if not ok:
            return {"vote": "no", "reason": "tenant-rejected", "view": self.view()}
        if self.leaving:
            return {"vote": "no", "reason": "leaving", "view": self.view()}
        mine = tuple(self.view())
        if mine != proposed:
            vote = {"vote": "no", "reason": "view-mismatch", "view": list(mine)}
            gone = self.agent.tombstones(proposed)
            if gone:
                vote["gone"] = gone
            return vote
        if any(key[0] == name for key in self._active):
            return {"vote": "no", "reason": "already-active", "view": list(mine)}
        self._prepared[(name, iteration)] = proposed
        return {"vote": "yes"}

    def _rpc_activate_commit(self, input: dict) -> Generator:
        name = input["pipeline"]
        iteration = input["iteration"]
        key = (name, iteration)
        tenant = self._stamp_tenant(name)
        view = self._prepared.pop(key, None)
        if view is None:
            raise RuntimeError(f"commit without prepare for {key}")
        self._active[key] = next(self._epochs)
        pipeline = self.pipelines[name]
        result = {"status": "activated"}
        if input.get("recover"):
            # Recovery phase (DESIGN §11): survivors reconcile the
            # staged set against the new view *before* the backend's
            # activate, so execute sees a complete distribution.
            report = yield from recover_iteration(
                self, name, iteration, view,
                expected=input.get("expected") or (),
            )
            result.update(report)
        else:
            # A fresh activation of this iteration: any leftover data
            # (from an aborted earlier attempt whose blocks will be
            # re-staged under the *new* view's placement) would create
            # double ownership. Purge it.
            pipeline.discard(iteration)
            self.replicas.drop_iteration(name, iteration)
            self.tenants.release(name, iteration)
        yield from pipeline.activate(iteration, list(view))
        self._core_counters.activations_committed.inc()
        self._counters_of(tenant).activations_committed.inc()
        return result

    def _rpc_activate_abort(self, input: dict) -> Generator:
        yield self.margo.sim.timeout(0)
        self._prepared.pop((input["pipeline"], input["iteration"]), None)
        return "aborted"

    # ------------------------------------------------------------------
    # data plane
    def _rpc_stage(self, input: dict) -> Generator:
        name = input["pipeline"]
        iteration = input["iteration"]
        epoch = self._active.get((name, iteration))
        if epoch is None:
            raise RuntimeError(
                f"stage for inactive iteration {iteration} of {name!r}"
            )
        handle: MemoryHandle = input["handle"]
        block_id = input["block_id"]
        tenant = self._stamp_tenant(name)
        # Quota admission (DESIGN §13): reserve the block against the
        # tenant's budget *before* pulling any data. Over quota, this
        # backpressures — waiting for an earlier iteration's deactivate
        # to free room — instead of failing outright.
        yield from self.tenants.reserve(
            tenant, name, iteration, block_id, handle.nbytes,
            still_valid=lambda: self._active.get((name, iteration)) == epoch,
        )
        try:
            # Pull the data from the simulation's memory via RDMA (§II-B).
            payload = yield self.margo.bulk_pull(handle)
            # The RDMA pull suspended us for a while; the iteration may
            # have been deactivated (or aborted and re-activated — a new
            # epoch) in the meantime. Refuse to write into the wrong
            # activation.
            if self._active.get((name, iteration)) != epoch:
                raise RuntimeError(
                    f"stage raced deactivate for iteration {iteration} of {name!r}"
                )
            block = StagedBlock(
                block_id=block_id, metadata=dict(input.get("metadata") or {}),
                payload=payload,
            )
            pipeline = self.pipelines[name]
            yield from pipeline.stage(iteration, block)
        except BaseException:
            self.tenants.uncharge(tenant, name, iteration, block_id)
            raise
        self._core_counters.blocks_staged.inc()
        self._core_counters.bytes_staged.inc(handle.nbytes)
        counters = self._counters_of(tenant)
        counters.blocks_staged.inc()
        counters.bytes_staged.inc(handle.nbytes)
        factor = pipeline.replication_factor
        view = list(pipeline.current_view)
        if factor >= 2 and len(view) >= 2:
            yield from replicate_block(self, name, iteration, block, view, factor)
        return "staged"

    def _rpc_execute(self, input: dict) -> Generator:
        name = input["pipeline"]
        iteration = input["iteration"]
        if (name, iteration) not in self._active:
            raise RuntimeError(f"execute for inactive iteration {iteration} of {name!r}")
        tenant = self._stamp_tenant(name)
        pipeline = self.pipelines[name]
        yield from pipeline.execute(iteration)
        self._core_counters.executes.inc()
        self._counters_of(tenant).executes.inc()
        return "executed"

    def _rpc_deactivate(self, input: dict) -> Generator:
        yield self.margo.sim.timeout(0)
        name = input["pipeline"]
        iteration = input["iteration"]
        key = (name, iteration)
        pipeline = self.pipelines.get(name)
        was_active = self.end_activation(key, "deactivated")
        if pipeline is not None and not input.get("keep_data"):
            # keep_data is the abort-for-retry path: the activation ends
            # (its execute is aborted, a stage in flight finds its epoch
            # gone) but staged blocks and their replicas survive so the
            # next activate can recover instead of re-staging.
            yield from pipeline.deactivate(iteration)
            if key not in self._active:
                self.replicas.drop_iteration(name, iteration)
                # The iteration's data is gone: free its quota charges,
                # waking any of this tenant's stages backpressured on
                # room. If a fresh activate for this key committed while
                # deactivate was yielding, the replicas and charges now
                # belong to the *new* epoch (its commit already purged
                # ours) — dropping them here would destroy the new
                # activation's state and underflow its quota.
                self.tenants.release(name, iteration)
        if not self._active and self._leave_deferred:
            self._leave_deferred = False
            self.leaving = True
            if self.on_ready_to_leave is not None:
                self.on_ready_to_leave()
        # Explicitly idempotent: deactivating a key that was never
        # active (double-deactivate, tolerant abort broadcasts,
        # post-crash cleanup) is a no-op, reported distinctly.
        status = "not-active" if pipeline is None or not was_active else "deactivated"
        if "view" not in input:
            return status
        # The abort path names the frozen view it is tearing down; the
        # acknowledgement carries the terminal SWIM records this server
        # holds for those members, so the client stops waiting for them
        # and can relay the records to the next prepare.
        return {"status": status, "gone": self.agent.tombstones(input["view"])}

    def _rpc_migrate(self, input: dict) -> Generator:
        """Receive a departing peer's pipeline state (future work (3))."""
        yield self.margo.sim.timeout(0)
        pipeline = self.pipelines.get(input["pipeline"])
        if pipeline is None:
            raise RuntimeError(f"migrate: no pipeline {input['pipeline']!r} here")
        pipeline.merge_state(input["state"])
        return "merged"

    def _rpc_get_view(self, _input: Any) -> Generator:
        yield self.margo.sim.timeout(0)
        return self.view()

    # ------------------------------------------------------------------
    # replication & recovery (DESIGN §11)
    def block_inventory(self, name: str, iteration: int) -> Dict[str, List[int]]:
        """Block ids this process holds for an iteration, by role."""
        pipeline = self.pipelines.get(name)
        primary = (
            sorted(b.block_id for b in pipeline.blocks(iteration))
            if pipeline is not None
            else []
        )
        return {
            "primary": primary,
            "replica": self.replicas.block_ids(name, iteration),
        }

    def _rpc_replicate(self, input: dict) -> Generator:
        name = input["pipeline"]
        iteration = input["iteration"]
        key = (name, iteration)
        handle: MemoryHandle = input["handle"]
        payload = yield self.margo.bulk_pull(handle)
        # Accept while the iteration is active here — or still merely
        # prepared: a buddy's commit may land after the owner's, and
        # stage (hence replicate) traffic can arrive in that window.
        # Anything else is a stale forward from a dead epoch; storing
        # it would leak past the iteration's deactivate.
        if key not in self._active and key not in self._prepared:
            return "stale"
        block = StagedBlock(
            block_id=input["block_id"],
            metadata=dict(input.get("metadata") or {}),
            payload=payload,
        )
        self.replicas.put(name, iteration, block)
        self._core_counters.blocks_replicated.inc()
        self._core_counters.replica_bytes.inc(handle.nbytes)
        return "replicated"

    def _rpc_inventory(self, input: dict) -> Generator:
        yield self.margo.sim.timeout(0)
        return self.block_inventory(input["pipeline"], input["iteration"])

    def _rpc_fetch_block(self, input: dict) -> Generator:
        """Serve one replicated block to a recovering peer (RDMA pull
        on the peer's side — the client is never involved)."""
        yield self.margo.sim.timeout(0)
        block = self.replicas.get(
            input["pipeline"], input["iteration"], input["block_id"]
        )
        if block is None:
            return None
        return {
            "block_id": block.block_id,
            "metadata": dict(block.metadata),
            "handle": self.margo.expose(block.payload),
        }
