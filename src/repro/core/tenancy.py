"""Multi-tenant staging fabric (DESIGN §13).

The paper's deployment model is one simulation driving one staging
area. This module turns the staging service into a shared fabric: N
independent simulations (*tenants*) attach to one provider group, each
with its own namespaced pipeline registry, its own 2PC activation
epochs, and its own staged-block/replica ownership — while providers
multiplex them with admission control, per-tenant quotas enforced at
``stage`` time with backpressure, and fair-share scheduling of execute
work across Argobots pools.

Namespacing is structural, not advisory: a tenant's pipeline ``render``
travels on the wire as ``<tenant>#render``, so every table keyed by
pipeline name — the provider's pipeline registry, the ``(pipeline,
iteration)`` activation-epoch map, the replica store, and the
rendezvous placement keys ``tenant#pipeline#iteration#block_id`` in
:mod:`repro.core.distribution` / :mod:`repro.core.replication` — is
per-tenant automatically, and one tenant's abort, crash recovery, or
deactivate cannot even *name* another tenant's state.

The ``default`` tenant is the unqualified namespace: legacy clients
that never mention tenancy keep exactly their old wire protocol and
their old behaviour (pinned chaos digests included).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

__all__ = [
    "DEFAULT_TENANT",
    "TENANT_SEP",
    "TenancyConfig",
    "TenantQuota",
    "TenantRegistry",
    "qualify",
    "tenant_of",
]

#: The unqualified namespace legacy clients live in.
DEFAULT_TENANT = "default"
#: Separator between tenant and pipeline in qualified names. Chosen to
#: match the replication layer's ``pipeline#iteration#block_id`` block
#: keys, so a qualified pipeline yields exactly the
#: ``tenant#pipeline#iteration#block_id`` placement keys of DESIGN §13.
TENANT_SEP = "#"


def qualify(tenant: str, name: str) -> str:
    """The wire-level pipeline name for ``name`` owned by ``tenant``.

    The default tenant maps to the unqualified name, so legacy clients
    and tenant-aware ones interoperate on one provider group.
    """
    if TENANT_SEP in name:
        raise ValueError(f"pipeline name {name!r} may not contain {TENANT_SEP!r}")
    if tenant == DEFAULT_TENANT:
        return name
    if not tenant or TENANT_SEP in tenant:
        raise ValueError(f"invalid tenant id {tenant!r}")
    return f"{tenant}{TENANT_SEP}{name}"


def tenant_of(qualified: str) -> str:
    """The tenant owning a wire-level pipeline name."""
    if TENANT_SEP in qualified:
        return qualified.split(TENANT_SEP, 1)[0]
    return DEFAULT_TENANT


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant staging budget on ONE provider (None = unlimited).

    Enforced at ``stage`` admission time against the blocks/bytes the
    provider currently holds for the tenant; replicas are deliberately
    not charged (they are the fabric's own redundancy, not the
    tenant's footprint).
    """

    max_blocks: Optional[int] = None
    max_bytes: Optional[int] = None

    @property
    def unlimited(self) -> bool:
        return self.max_blocks is None and self.max_bytes is None


@dataclass
class TenancyConfig:
    """Fabric-wide tenancy policy, shared by every provider.

    - ``max_tenants`` bounds admission (the ``default`` tenant is the
      infrastructure namespace and does not consume a slot);
    - ``default_quota`` applies to tenants without an explicit entry in
      ``quotas``;
    - ``quota_wait`` is the backpressure patience: a ``stage`` that
      would exceed the quota waits up to this many simulated seconds
      for an earlier iteration's deactivate to free room before it is
      finally refused;
    - ``fair_share`` switches every daemon's xstream from FIFO to
      round-robin-by-tenant compute scheduling.
    """

    max_tenants: Optional[int] = None
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    quota_wait: float = 10.0
    fair_share: bool = True


class _TenantState:
    """One provider's book-keeping for one admitted tenant."""

    __slots__ = ("tenant", "blocks", "nbytes", "charges", "release_ev")

    def __init__(self, tenant: str):
        self.tenant = tenant
        self.blocks = 0
        self.nbytes = 0
        #: (qualified pipeline, iteration) -> {block_id: charged bytes}.
        #: Charged at stage admission, released when the iteration's
        #: data is dropped — so release matches exactly what was
        #: charged even if payload sizes are re-estimated elsewhere.
        self.charges: Dict[Tuple[str, int], Dict[int, int]] = {}
        #: Event fired whenever room is freed (quota backpressure).
        self.release_ev: Any = None


class TenantRegistry:
    """Admission control + quota accounting for one provider.

    The registry is the provider-side half of the tenancy contract:
    :meth:`admit` gates attach/activate/stage for unseen tenants,
    :meth:`reserve` implements stage-time quota backpressure, and the
    charge/release pair keeps per-tenant usage exact across
    deactivates, purges, detaches and pipeline destruction.
    """

    def __init__(self, sim: Any, config: Optional[TenancyConfig] = None, label: str = "colza.tenants"):
        from repro.analysis.simtsan import Shared

        self.sim = sim
        #: Whether tenancy was explicitly configured for this fabric.
        #: Unconfigured registries admit everyone unlimited and change
        #: no legacy behaviour.
        self.configured = config is not None
        self.config = config or TenancyConfig()
        self._states: Dict[str, _TenantState] = Shared(sim=sim, label=label)

    # ------------------------------------------------------------------
    # admission
    def tenants(self) -> List[str]:
        """Admitted tenants, sorted (``default`` included if seen)."""
        return sorted(self._states)

    def is_admitted(self, tenant: str) -> bool:
        return tenant in self._states

    def admit(self, tenant: str) -> Tuple[bool, str]:
        """Admit ``tenant`` (idempotent). Returns ``(ok, reason)``.

        The default tenant is always admitted: it is the unqualified
        namespace legacy clients use, and refusing it would turn a
        tenancy rollout into a breaking change.
        """
        if tenant in self._states:
            return True, "already-attached"
        limit = self.config.max_tenants
        if (
            tenant != DEFAULT_TENANT
            and limit is not None
            and sum(1 for t in self._states if t != DEFAULT_TENANT) >= limit
        ):
            return False, f"max-tenants ({limit}) reached"
        self._states[tenant] = _TenantState(tenant)
        return True, "attached"

    def detach(self, tenant: str) -> bool:
        """Drop a tenant's admission slot and all its accounting."""
        return self._states.pop(tenant, None) is not None

    # ------------------------------------------------------------------
    # quotas
    def quota_for(self, tenant: str) -> TenantQuota:
        return self.config.quotas.get(tenant, self.config.default_quota)

    def usage(self, tenant: str) -> Tuple[int, int]:
        """Currently charged ``(blocks, bytes)`` for ``tenant`` here."""
        state = self._states.get(tenant)
        if state is None:
            return (0, 0)
        return (state.blocks, state.nbytes)

    def _fits(self, state: _TenantState, quota: TenantQuota, key, block_id: int, nbytes: int) -> bool:
        held = state.charges.get(key, {})
        extra_blocks = 0 if block_id in held else 1
        extra_bytes = nbytes - held.get(block_id, 0)
        if quota.max_blocks is not None and state.blocks + extra_blocks > quota.max_blocks:
            return False
        if quota.max_bytes is not None and state.nbytes + extra_bytes > quota.max_bytes:
            return False
        return True

    def charge(self, tenant: str, name: str, iteration: int, block_id: int, nbytes: int) -> None:
        """Record one staged block against the tenant (idempotent per
        block id: a re-staged block replaces its previous charge)."""
        state = self._states.get(tenant)
        if state is None:
            ok, _reason = self.admit(tenant)
            if not ok:  # charged blocks always belong to admitted tenants
                raise RuntimeError(f"charge for unadmitted tenant {tenant!r}")
            state = self._states[tenant]
        held = state.charges.setdefault((name, iteration), {})
        previous = held.get(block_id)
        if previous is None:
            state.blocks += 1
        else:
            state.nbytes -= previous
        held[block_id] = nbytes
        state.nbytes += nbytes

    def uncharge(self, tenant: str, name: str, iteration: int, block_id: int) -> None:
        """Withdraw one reservation (stage failed after admission)."""
        state = self._states.get(tenant)
        if state is None:
            return
        held = state.charges.get((name, iteration))
        if held is None or block_id not in held:
            return
        state.nbytes -= held.pop(block_id)
        state.blocks -= 1
        if not held:
            state.charges.pop((name, iteration), None)
        self._notify_release(state)

    def release(self, name: str, iteration: int) -> None:
        """Free everything charged for ``(name, iteration)`` — called
        when the iteration's staged data is actually dropped."""
        tenant = tenant_of(name)
        state = self._states.get(tenant)
        if state is None:
            return
        held = state.charges.pop((name, iteration), None)
        if not held:
            return
        state.blocks -= len(held)
        state.nbytes -= sum(held.values())
        self._notify_release(state)

    def release_pipeline(self, name: str) -> None:
        """Free every iteration's charges for one pipeline (destroy)."""
        state = self._states.get(tenant_of(name))
        if state is None:
            return
        for key in sorted(k for k in state.charges if k[0] == name):
            held = state.charges.pop(key)
            state.blocks -= len(held)
            state.nbytes -= sum(held.values())
        self._notify_release(state)

    def _notify_release(self, state: _TenantState) -> None:
        ev = state.release_ev
        state.release_ev = None
        if ev is not None and not ev.fired:
            ev.succeed()

    # ------------------------------------------------------------------
    def reserve(
        self,
        tenant: str,
        name: str,
        iteration: int,
        block_id: int,
        nbytes: int,
        still_valid,
    ) -> Generator:
        """Admit one block against the quota, with backpressure.

        If the block does not fit, wait (event-driven, no polling) for
        an earlier iteration's deactivate to free room, up to the
        config's ``quota_wait`` patience. ``still_valid`` is the
        caller's activation-epoch guard: the wait aborts as soon as the
        iteration being staged into was deactivated underneath it.

        On success the block is charged *before* the caller pulls any
        data, so concurrent stage handlers cannot jointly overshoot
        the quota. Raises ``RuntimeError`` when patience runs out —
        the hard failure behind the soft backpressure.
        """
        state = self._states.get(tenant)
        if state is None:
            ok, reason = self.admit(tenant)
            if not ok:
                raise RuntimeError(f"tenant {tenant!r} not admitted: {reason}")
            state = self._states[tenant]
        quota = self.quota_for(tenant)
        key = (name, iteration)
        if quota.unlimited or self._fits(state, quota, key, block_id, nbytes):
            self.charge(tenant, name, iteration, block_id, nbytes)
            return None
        scope = self.sim.metrics.scope(f"tenant.{tenant}")
        scope.counter("quota_stalls").inc()
        deadline = self.sim.now + self.config.quota_wait
        started = self.sim.now
        while not self._fits(state, quota, key, block_id, nbytes):
            if not still_valid():
                raise RuntimeError(
                    f"stage of {name}#{iteration}#{block_id} raced deactivate "
                    f"while waiting for quota"
                )
            remaining = deadline - self.sim.now
            if remaining <= 0:
                blocks, held_bytes = self.usage(tenant)
                raise RuntimeError(
                    f"tenant {tenant!r} over quota for {name}#{iteration}#"
                    f"{block_id}: holding {blocks} blocks / {held_bytes} bytes "
                    f"against {quota}, no room freed within "
                    f"{self.config.quota_wait}s"
                )
            if state.release_ev is None or state.release_ev.fired:
                state.release_ev = self.sim.event(f"tenant.{tenant}.quota-release")
            yield self.sim.any_of([state.release_ev, self.sim.timeout(remaining)])
        self.charge(tenant, name, iteration, block_id, nbytes)
        scope.counter("quota_stall_seconds").inc(self.sim.now - started)
        return None
