"""Staged-block replication and crash recovery (DESIGN §11).

The paper lists fault tolerance as future work; the resilient-iteration
client (PR "fault tolerance") recovers from a provider crash only by
throwing away all staged data and re-staging every block from the
simulation. This module makes the staging area itself resilient:

- **Placement.** When a pipeline is configured with
  ``replication_factor: K`` (K >= 2), the owner of each staged block
  forwards it to ``K-1`` *buddy* servers chosen by rendezvous
  (highest-random-weight) hashing over ``(pipeline, iteration,
  block_id)``. Placement is a pure function of the frozen view, so
  every member computes it without communication. When the view spans
  multiple nodes, buddies on the owner's node are skipped — a node
  failure must never take out a block and its replica together.

- **Replica store.** Buddies keep replicated blocks in a
  :class:`ReplicaStore` *next to* the pipeline, never inside
  ``Backend.staged``: replicas are not owned blocks, and the
  single-ownership invariant (DESIGN §6) keeps holding verbatim.

- **Recovery.** When an iteration fails and the client re-activates
  with ``recover=True``, every surviving member runs
  :func:`recover_iteration` inside its 2PC commit — after prepare,
  before the backend's ``activate``. Survivors exchange block
  inventories, detect *orphaned* blocks (staged blocks whose owner is
  no longer in the view), and the rendezvous winner for each orphan
  re-fetches it peer-to-peer from a replica holder (an RDMA pull
  between servers — the client is not involved). Adopted and surviving
  blocks are then re-replicated against the new view so a later
  failure is survivable too. Only a block with neither a live owner
  nor a live replica is reported ``missing``; the client falls back to
  a full re-stage for those — and says which blocks forced it.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.backend import StagedBlock
from repro.core.tenancy import tenant_of
from repro.mercury import RpcError
from repro.na.address import Address
from repro.na.payload import payload_nbytes

__all__ = [
    "ReplicaStore",
    "block_owner",
    "node_of",
    "placement_rank",
    "recover_iteration",
    "replica_buddies",
    "replicate_block",
]


def node_of(address: Any) -> str:
    """The failure domain (node name) an endpoint lives on.

    Addresses are ``na+sim://nid00003/colza-7`` — the node is encoded
    in the URI, so failure-domain-aware placement is a pure function
    of the membership view (no extra communication, like
    :func:`~repro.core.provider.mona_address_of`).
    """
    uri = str(address)
    rest = uri.split("://", 1)[-1]
    return rest.rsplit("/", 1)[0]


def placement_rank(key: str, member: Any) -> int:
    """Rendezvous weight of ``member`` for ``key`` (stable across runs;
    SHA-256, not ``hash()``, so PYTHONHASHSEED cannot perturb it)."""
    digest = hashlib.sha256(f"{key}@{member}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _block_key(pipeline: str, iteration: int, block_id: int) -> str:
    return f"{pipeline}#{iteration}#{block_id}"


def block_owner(
    pipeline: str, iteration: int, block_id: int, view: Sequence[Address]
) -> Address:
    """The rendezvous winner for a block among ``view``.

    Used during recovery to re-assign orphaned blocks: every survivor
    computes the same winner independently, so exactly one member
    adopts each orphan.
    """
    key = _block_key(pipeline, iteration, block_id)
    return max(view, key=lambda m: (placement_rank(key, m), str(m)))


def replica_buddies(
    pipeline: str,
    iteration: int,
    block_id: int,
    owner: Address,
    view: Sequence[Address],
    factor: int,
) -> List[Address]:
    """The ``K-1`` buddy replicas for a block, rendezvous-ordered.

    The owner is never its own buddy. When the view spans multiple
    nodes, candidates on the owner's node rank behind every off-node
    candidate, so with enough off-node members a node failure cannot
    claim a block and all of its replicas at once. A single-node view
    degrades gracefully to same-node buddies (better than none: it
    still survives process crashes).
    """
    if factor <= 1:
        return []
    key = _block_key(pipeline, iteration, block_id)
    candidates = [m for m in view if m != owner]
    candidates.sort(key=lambda m: (placement_rank(key, m), str(m)), reverse=True)
    owner_node = node_of(owner)
    off_node = [m for m in candidates if node_of(m) != owner_node]
    if off_node:
        on_node = [m for m in candidates if node_of(m) == owner_node]
        candidates = off_node + on_node
    return candidates[: factor - 1]


class ReplicaStore:
    """Buddy-side storage of replicated blocks.

    Keyed ``(pipeline, iteration) -> {block_id: StagedBlock}``, dropped
    together with the pipeline's own staged data at deactivate. The
    table is SimTSan-observable like the provider's other shared state
    (replicate/fetch/recovery handlers race on it across ULTs).
    """

    def __init__(self, sim: Any = None, label: str = "colza.replicas"):
        from repro.analysis.simtsan import Shared

        self._blocks: Dict[Tuple[str, int], Dict[int, StagedBlock]] = Shared(
            sim=sim, label=label
        )

    # ------------------------------------------------------------------
    def put(self, pipeline: str, iteration: int, block: StagedBlock) -> None:
        """Store (or refresh) one replica; idempotent per block id."""
        self._blocks.setdefault((pipeline, iteration), {})[block.block_id] = block

    def get(self, pipeline: str, iteration: int, block_id: int) -> Optional[StagedBlock]:
        return self._blocks.get((pipeline, iteration), {}).get(block_id)

    def pop(self, pipeline: str, iteration: int, block_id: int) -> Optional[StagedBlock]:
        held = self._blocks.get((pipeline, iteration))
        if not held:
            return None
        return held.pop(block_id, None)

    def block_ids(self, pipeline: str, iteration: int) -> List[int]:
        return sorted(self._blocks.get((pipeline, iteration), {}))

    def drop_iteration(self, pipeline: str, iteration: int) -> None:
        self._blocks.pop((pipeline, iteration), None)

    def drop_pipeline(self, pipeline: str) -> None:
        for key in sorted(k for k in self._blocks if k[0] == pipeline):
            self._blocks.pop(key, None)


# ---------------------------------------------------------------------------
# wire protocol helpers (run inside provider RPC handlers)
def replicate_block(
    provider,
    pipeline: str,
    iteration: int,
    block: StagedBlock,
    view: Sequence[Address],
    factor: int,
    skip: Sequence[Address] = (),
) -> Generator:
    """Forward one owned block to its buddies (owner side).

    Buddies RDMA-pull the payload exactly like a stage. Forwarding
    failures are tolerated: a buddy that died mid-iteration is SWIM's
    problem, and the next activate's recovery re-heals the placement.
    """
    margo = provider.margo
    buddies = replica_buddies(
        pipeline, iteration, block.block_id, margo.address, view, factor
    )
    for buddy in buddies:
        if buddy in skip:
            continue
        handle = margo.expose(block.payload)
        try:
            yield from margo.provider_call(
                buddy,
                "colza",
                "replicate",
                {
                    "pipeline": pipeline,
                    "iteration": iteration,
                    "block_id": block.block_id,
                    "metadata": dict(block.metadata),
                    "handle": handle,
                },
                nbytes=256,  # ships a handle, not the data
                timeout=provider.REPLICATE_TIMEOUT,
            )
        except RpcError:
            margo.sim.trace.add("colza.replicate_failed")
    return None


def recover_iteration(
    provider,
    pipeline_name: str,
    iteration: int,
    view: Sequence[Address],
    expected: Sequence[int] = (),
) -> Generator:
    """The recovery phase of a re-activation (runs on every member).

    ``expected`` is the client's record of successfully staged block
    ids. It matters when a block's owner AND all its replica holders
    died: no survivor's inventory mentions the block, so without the
    client's list the loss would be silent instead of reported.

    Returns ``{"held": [...], "recovered": int, "missing": [...]}`` —
    the blocks this member owns after recovery, how many it adopted
    from replicas, and the orphans it was responsible for but could
    not find a replica of (the client's re-stage fallback set).
    """
    sim = provider.margo.sim
    me = provider.margo.address
    pipeline = provider.pipelines[pipeline_name]
    key = (pipeline_name, iteration)
    epoch = provider._active.get(key)
    span = sim.trace.begin(
        "colza.recovery",
        pipeline=pipeline_name,
        iteration=iteration,
        server=provider.margo.name,
    )

    # 1. Exchange inventories with every other member of the agreed
    # view. An unreachable peer (it died between prepare and now)
    # simply contributes nothing: its blocks show up as orphans.
    primaries: Dict[int, List[Address]] = {}
    replicas: Dict[int, List[Address]] = {}

    def merge(member: Address, inv: Dict[str, List[int]]) -> None:
        for block_id in inv.get("primary", ()):
            primaries.setdefault(block_id, []).append(member)
        for block_id in inv.get("replica", ()):
            replicas.setdefault(block_id, []).append(member)

    merge(me, provider.block_inventory(pipeline_name, iteration))
    for peer in view:
        if peer == me:
            continue
        try:
            inv = yield from provider.margo.provider_call(
                peer,
                "colza",
                "inventory",
                {"pipeline": pipeline_name, "iteration": iteration},
                timeout=provider.RECOVERY_TIMEOUT,
            )
        except RpcError:
            continue
        merge(peer, inv)

    # 2. Adopt the orphans this member wins: promote a local replica,
    # or RDMA-pull from a replica holder (server-to-server; the client
    # never re-stages).
    known = set(primaries) | set(replicas) | set(expected)
    orphans = sorted(b for b in known if b not in primaries)
    core = sim.metrics.scope("core")
    adopted = 0
    missing: List[int] = []
    for block_id in orphans:
        # The epoch may have died while we were exchanging inventories
        # (or adopting an earlier orphan): an abort-during-recovery is
        # a pinned chaos scenario. Popping a local replica for a dead
        # epoch would destroy the copy the *next* recovery pass needs
        # — the block's only surviving replica, if its owner is gone.
        if provider._active.get(key) != epoch:
            break
        if block_owner(pipeline_name, iteration, block_id, view) != me:
            continue
        block = provider.replicas.pop(pipeline_name, iteration, block_id)
        if block is None:
            for holder in sorted(replicas.get(block_id, []), key=str):
                if holder == me:
                    continue
                try:
                    reply = yield from provider.margo.provider_call(
                        holder,
                        "colza",
                        "fetch_block",
                        {
                            "pipeline": pipeline_name,
                            "iteration": iteration,
                            "block_id": block_id,
                        },
                        nbytes=256,
                        timeout=provider.RECOVERY_TIMEOUT,
                    )
                except RpcError:
                    continue
                if reply is None:
                    continue
                payload = yield provider.margo.bulk_pull(reply["handle"])
                block = StagedBlock(
                    block_id=block_id,
                    metadata=dict(reply.get("metadata") or {}),
                    payload=payload,
                )
                break
        if block is None:
            missing.append(block_id)
            continue
        # The iteration may have been aborted (and even re-activated)
        # while we were pulling; adopting into a dead epoch would race
        # the *next* recovery pass into double ownership.
        if provider._active.get(key) != epoch:
            break
        # Ownership moves here, so the quota charge moves with it
        # (DESIGN §13): the dead owner's accounting died with it.
        # Charged before the stage completes — a staged block must be
        # covered by a charge at every instant (TenantIsolation).
        provider.tenants.charge(
            tenant_of(pipeline_name), pipeline_name, iteration,
            block_id, payload_nbytes(block.payload),
        )
        try:
            yield from pipeline.stage(iteration, block)
        except BaseException:
            # A kill/interrupt landing on the adoption stage must not
            # leave the charge orphaned: the block never made it into
            # the staged set, so nothing would ever release it.
            provider.tenants.uncharge(
                tenant_of(pipeline_name), pipeline_name, iteration, block_id
            )
            raise
        adopted += 1
        core.counter("blocks_recovered").inc()
        sim.trace.add("colza.block_recovered")

    # 3. Re-heal placement: every block this member now owns gets its
    # replica set rebuilt against the *new* view, so consecutive
    # failures (each with f < K between activations) stay survivable.
    factor = pipeline.replication_factor
    if factor >= 2 and len(view) >= 2 and provider._active.get(key) == epoch:
        for block in pipeline.blocks(iteration):
            holders = tuple(replicas.get(block.block_id, ()))
            yield from replicate_block(
                provider, pipeline_name, iteration, block, view,
                factor, skip=holders,
            )

    held = sorted(b.block_id for b in pipeline.blocks(iteration))
    sim.trace.end(span, adopted=adopted, missing=list(missing), held=len(held))
    return {"held": held, "recovered": adopted, "missing": missing}
