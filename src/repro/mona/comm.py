"""MoNA communicators: p2p plus tree-based collectives.

A communicator is an ordered list of addresses; rank is position.
Collectives are generators (``yield from comm.bcast(...)``) implementing
the MPICH-inspired algorithms the paper describes:

- broadcast: binomial tree;
- reduce: *simple binary tree* (the paper's own words for MoNA's
  algorithm — sequential child combines at each level, which is why its
  Table II numbers trail Cray-mpich);
- allreduce: reduce-to-0 + broadcast;
- gather/scatter: binomial trees carrying subtree payload maps;
- allgather: ring;
- alltoall: pairwise rounds;
- barrier: dissemination.

Timing: each message pays the calibrated MoNA p2p cost; each collective
recv additionally pays the per-hop software overhead
(:meth:`~repro.na.costmodel.CostModel.hop_overhead`), and reductions pay
combine compute at :data:`REDUCE_BYTES_PER_SEC`. Collective cost
therefore *emerges* from algorithm × transport — there is no collective
lookup table for MoNA (unlike the black-box MPI baselines).

Matching: every collective instance gets a sequence number counted per
communicator; MPI ordering rules (all members issue collectives in the
same order) make the counters agree without negotiation.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Any, Generator, Hashable, List, Optional, Sequence

from repro.mona.ops import ReduceOp, SUM
from repro.na.address import Address
from repro.na.fabric import Message
from repro.na.payload import payload_nbytes
from repro.sim.kernel import Event, Task
from repro.telemetry.metrics import Counter, Histogram

__all__ = ["MonaComm", "REDUCE_BYTES_PER_SEC"]

#: Local combine throughput for reductions (bytes/second).
REDUCE_BYTES_PER_SEC = 3.0e9


def _traced(op: str):
    """Wrap a collective generator method in a ``mona.<op>`` span.

    Only the public entry points are decorated — internal helpers and
    collectives composed of other collectives (allreduce = reduce +
    bcast) produce nested spans naturally.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self: "MonaComm", *args: Any, **kwargs: Any) -> Generator:
            sim = self.instance.sim
            span = sim.trace.begin(
                f"mona.{op}", comm=self.comm_id, rank=self.rank, size=self.size
            )
            try:
                result = yield from fn(self, *args, **kwargs)
            except BaseException as err:
                sim.trace.end(span, error=type(err).__name__)
                raise
            sim.trace.end(span)
            self._m_collectives.inc()
            if span.recorded:
                self._m_collective_seconds.observe(span.duration)
            return result

        return wrapper

    return decorate


class MonaComm:
    """A communicator bound to one member's :class:`MonaInstance`."""

    def __init__(self, instance, addresses: List[Address], comm_id: str):
        self.instance = instance
        self.addresses = list(addresses)
        self.comm_id = comm_id
        try:
            self.rank = self.addresses.index(instance.address)
        except ValueError:
            raise ValueError(f"{instance.address} not in communicator") from None
        self.size = len(self.addresses)
        self._coll_seq = itertools.count()

    @functools.cached_property
    def _m_collectives(self) -> Counter:
        return self.instance.sim.metrics.scope("mona").counter("collectives")

    @functools.cached_property
    def _m_collective_seconds(self) -> Histogram:
        return self.instance.sim.metrics.scope("mona").histogram("collective_seconds")

    # ------------------------------------------------------------------
    # derived communicators
    def dup(self) -> "MonaComm":
        """A new communicator over the same members (fresh match space)."""
        return self.instance.comm_create(self.addresses)

    def subset(self, ranks: Sequence[int]) -> Optional["MonaComm"]:
        """Communicator over a subset of ranks (None if self excluded)."""
        members = [self.addresses[r] for r in ranks]
        if self.instance.address not in members:
            return None
        return self.instance.comm_create(members)

    # ------------------------------------------------------------------
    # point-to-point
    def isend(self, dest: int, payload: Any, tag: Hashable = 0) -> Event:
        """Non-blocking send; event fires at delivery."""
        return self.instance.endpoint.send(
            self.addresses[dest], payload, tag=(self.comm_id, "p2p", tag)
        )

    def irecv(self, source: Optional[int] = None, tag: Hashable = 0) -> Event:
        """Non-blocking receive; event fires with the raw Message."""
        src = self.addresses[source] if source is not None else None
        return self.instance.endpoint.recv(tag=(self.comm_id, "p2p", tag), source=src)

    def send(self, dest: int, payload: Any, tag: Hashable = 0) -> Generator:
        yield self.isend(dest, payload, tag)

    def recv(self, source: Optional[int] = None, tag: Hashable = 0) -> Generator:
        msg: Message = yield self.irecv(source, tag)
        return msg.payload

    def sendrecv(
        self, dest: int, payload: Any, source: int, tag: Hashable = 0
    ) -> Generator:
        """Concurrent send+recv (deadlock-free pairwise exchange)."""
        tx = self.isend(dest, payload, tag)
        rx = self.irecv(source, tag)
        msg: Message = yield rx
        yield tx
        return msg.payload

    def start(self, gen: Generator, name: str = "mona-icoll") -> Task:
        """Run a (collective) generator in the background; the returned
        task's ``join()`` fires with its result — MoNA's non-blocking
        collective variants."""
        return self.instance.sim.spawn(gen, name=name)

    # ------------------------------------------------------------------
    # internal collective plumbing
    def _ctag(self, seq: int, op: str) -> Hashable:
        return (self.comm_id, "coll", op, seq)

    def _csend(self, dest_rank: int, payload: Any, tag: Hashable) -> Event:
        return self.instance.endpoint.send(self.addresses[dest_rank], payload, tag=tag)

    def _crecv(self, src_rank: int, tag: Hashable) -> Event:
        return self.instance.endpoint.recv(tag=tag, source=self.addresses[src_rank])

    def _overhead(self) -> Event:
        """Per-hop software overhead (request dispatch in the progress loop)."""
        return self.instance.sim.timeout(self.instance.model.hop_overhead())

    def _combine_cost(self, payload: Any) -> Event:
        seconds = payload_nbytes(payload) / REDUCE_BYTES_PER_SEC
        return self.instance.sim.timeout(seconds)

    # ------------------------------------------------------------------
    # collectives
    @_traced("barrier")
    def barrier(self) -> Generator:
        """Dissemination barrier: ceil(log2 P) rounds."""
        seq = next(self._coll_seq)
        if self.size == 1:
            return None
        rounds = math.ceil(math.log2(self.size))
        for k in range(rounds):
            dist = 1 << k
            tag = self._ctag(seq, f"barrier{k}")
            self._csend((self.rank + dist) % self.size, b"", tag)
            yield self._crecv((self.rank - dist) % self.size, tag)
            yield self._overhead()
        return None

    @_traced("bcast")
    def bcast(self, payload: Any, root: int = 0, algorithm: str = "binomial") -> Generator:
        """Broadcast; returns the payload on every rank.

        ``"binomial"`` (default) is the short-message tree; MPICH's
        long-message ``"scatter_allgather"`` (binomial scatter + ring
        allgather) moves ~2n/P per rank instead of n per hop and is
        available for NumPy-array and virtual payloads.
        """
        if algorithm == "scatter_allgather":
            return (yield from self._bcast_scatter_allgather(payload, root))
        if algorithm != "binomial":
            raise ValueError(
                f"unknown bcast algorithm {algorithm!r} (binomial|scatter_allgather)"
            )
        seq = next(self._coll_seq)
        tag = self._ctag(seq, "bcast")
        if self.size == 1:
            return payload
        rel = (self.rank - root) % self.size

        mask = 1
        while mask < self.size:
            if rel & mask:
                src_rel = rel - mask
                msg: Message = yield self._crecv((src_rel + root) % self.size, tag)
                yield self._overhead()
                payload = msg.payload
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if rel + mask < self.size:
                dst_rel = rel + mask
                self._csend((dst_rel + root) % self.size, payload, tag)
            mask >>= 1
        return payload

    @_traced("reduce")
    def reduce(
        self, payload: Any, op: ReduceOp = SUM, root: int = 0, algorithm: str = "binary"
    ) -> Generator:
        """Tree reduction; result valid at ``root`` (None elsewhere).

        ``algorithm="binary"`` (default) is the "simple binary-tree-
        based reduction" the paper says MoNA uses (§III-C1): each parent
        receives its two children sequentially, paying hop overhead +
        combine compute per child. ``"binomial"`` is the MPICH-style
        optimized tree the paper expects would "further improve its
        performance" — see :mod:`repro.bench.experiments.ablation_reduce`.
        """
        seq = next(self._coll_seq)
        tag = self._ctag(seq, "reduce")
        if self.size == 1:
            return payload
        if algorithm == "binary":
            return (yield from self._reduce_binary(payload, op, root, tag))
        if algorithm == "binomial":
            return (yield from self._reduce_binomial(payload, op, root, tag))
        raise ValueError(f"unknown reduce algorithm {algorithm!r} (binary|binomial)")

    def _reduce_binary(self, payload: Any, op: ReduceOp, root: int, tag) -> Generator:
        # Child payloads are collected and folded once via combine_many:
        # same left-to-right order (bit-identical result), but the fold
        # accumulates into one owned buffer instead of allocating a
        # fresh array per child. Timing yields are untouched — combine
        # *cost* is still charged per child as the data arrives.
        rel = (self.rank - root) % self.size
        received: List[Any] = []
        for child_rel in (2 * rel + 1, 2 * rel + 2):
            if child_rel >= self.size:
                continue
            msg: Message = yield self._crecv((child_rel + root) % self.size, tag)
            yield self._overhead()
            yield self._combine_cost(msg.payload)
            received.append(msg.payload)
        accum = op.combine_many(payload, received)
        if rel != 0:
            parent_rel = (rel - 1) // 2
            yield self._csend((parent_rel + root) % self.size, accum, tag)
            return None
        return accum

    def _reduce_binomial(self, payload: Any, op: ReduceOp, root: int, tag) -> Generator:
        """Binomial tree: children arrive spread across rounds, so each
        level costs one (not two) serialized receives."""
        rel = (self.rank - root) % self.size
        received: List[Any] = []
        mask = 1
        while mask < self.size:
            if rel & mask:
                parent_rel = rel - mask
                accum = op.combine_many(payload, received)
                yield self._csend((parent_rel + root) % self.size, accum, tag)
                return None
            child_rel = rel | mask
            if child_rel < self.size:
                msg: Message = yield self._crecv((child_rel + root) % self.size, tag)
                yield self._overhead()
                yield self._combine_cost(msg.payload)
                received.append(msg.payload)
            mask <<= 1
        return op.combine_many(payload, received)

    @_traced("allreduce")
    def allreduce(self, payload: Any, op: ReduceOp = SUM, algorithm: str = "reduce_bcast") -> Generator:
        """Allreduce.

        ``"reduce_bcast"`` (default): reduce to rank 0 + broadcast —
        MoNA's simple composition. ``"rabenseifner"``: reduce-scatter by
        recursive halving + allgather by recursive doubling, MPICH's
        large-message algorithm (NumPy payloads, power-of-two sizes;
        falls back to reduce_bcast otherwise).
        """
        if algorithm == "rabenseifner":
            return (yield from self._allreduce_rabenseifner(payload, op))
        if algorithm != "reduce_bcast":
            raise ValueError(
                f"unknown allreduce algorithm {algorithm!r} (reduce_bcast|rabenseifner)"
            )
        reduced = yield from self.reduce(payload, op=op, root=0)
        return (yield from self.bcast(reduced, root=0))

    # ------------------------------------------------------------------
    # optimized large-message algorithms (the §III-C1 improvement path)
    @staticmethod
    def _split_payload(payload: Any, parts: int) -> Optional[List[Any]]:
        """Split an array/virtual payload into ``parts`` chunks; None if
        the payload type doesn't support splitting."""
        import numpy as np

        from repro.na.payload import VirtualPayload

        if isinstance(payload, VirtualPayload):
            base, rem = divmod(payload.nbytes, parts)
            return [
                VirtualPayload((base + (1 if i < rem else 0),), "uint8")
                for i in range(parts)
            ]
        if isinstance(payload, np.ndarray):
            return np.array_split(payload.ravel(), parts)
        return None

    def _bcast_scatter_allgather(self, payload: Any, root: int) -> Generator:
        import numpy as np

        from repro.na.payload import VirtualPayload

        if self.size == 1:
            return payload
        if self.rank == root:
            chunks = self._split_payload(payload, self.size)
            meta = None
            if isinstance(payload, np.ndarray):
                meta = (payload.shape, payload.dtype.str, "ndarray")
            elif isinstance(payload, VirtualPayload):
                meta = (payload.shape, payload.dtype, "virtual")
            if chunks is None:
                # Unsupported payload type: binomial fallback.
                meta = None
        else:
            chunks = None
            meta = None
        # Everyone learns whether the fast path applies (tiny bcast).
        meta = yield from self.bcast(meta, root=root)
        if meta is None:
            return (yield from self.bcast(payload, root=root))
        mine = yield from self.scatter(chunks, root=root)
        gathered = yield from self.allgather(mine)
        shape, dtype, kind = meta
        if kind == "virtual":
            return VirtualPayload(tuple(shape), dtype)
        flat = np.concatenate([np.asarray(c) for c in gathered])
        return flat.reshape(shape).astype(np.dtype(dtype), copy=False)

    def _allreduce_rabenseifner(self, payload: Any, op: ReduceOp) -> Generator:
        import numpy as np

        seq_guard = self.size
        if (
            seq_guard & (seq_guard - 1) != 0
            or not isinstance(payload, np.ndarray)
            or payload.size < self.size
        ):
            return (yield from self.allreduce(payload, op=op))
        seq = next(self._coll_seq)
        flat = payload.ravel()
        bounds = np.linspace(0, flat.size, self.size + 1).astype(int)
        segments = [flat[bounds[i] : bounds[i + 1]].copy() for i in range(self.size)]
        owned = list(range(self.size))  # segment ids this rank still folds

        # Reduce-scatter by recursive halving.
        step = 0
        half = self.size // 2
        while half >= 1:
            partner = self.rank ^ half
            in_low = (self.rank & half) == 0
            keep = [s for s in owned if (s & half == 0) == in_low]
            send = [s for s in owned if s not in keep]
            tag = self._ctag(seq, f"rs{step}")
            outgoing = {s: segments[s] for s in send}
            incoming = yield from self.sendrecv(partner, outgoing, partner, tag)
            yield self._overhead()
            for s, chunk in incoming.items():
                yield self._combine_cost(chunk)
                # Segments are private copies — fold in place.
                segments[s] = op.combine_inplace(segments[s], chunk)
            owned = keep
            half //= 2
            step += 1

        # Allgather by recursive doubling.
        half = 1
        step = 0
        while half < self.size:
            partner = self.rank ^ half
            tag = self._ctag(seq, f"ag{step}")
            outgoing = {s: segments[s] for s in owned}
            incoming = yield from self.sendrecv(partner, outgoing, partner, tag)
            yield self._overhead()
            for s, chunk in incoming.items():
                segments[s] = chunk
            owned = sorted(set(owned) | set(incoming))
            half *= 2
            step += 1

        return np.concatenate(segments).reshape(payload.shape)

    @_traced("gather")
    def gather(self, payload: Any, root: int = 0) -> Generator:
        """Binomial-tree gather; root returns the rank-ordered list."""
        seq = next(self._coll_seq)
        tag = self._ctag(seq, "gather")
        rel = (self.rank - root) % self.size
        bucket = {self.rank: payload}
        mask = 1
        while mask < self.size:
            if rel & mask:
                dst_rel = rel - mask
                yield self._csend((dst_rel + root) % self.size, bucket, tag)
                return None
            if rel + mask < self.size:
                msg: Message = yield self._crecv(((rel + mask) + root) % self.size, tag)
                yield self._overhead()
                bucket.update(msg.payload)
            mask <<= 1
        return [bucket[r] for r in range(self.size)]

    @_traced("scatter")
    def scatter(self, payloads: Optional[Sequence[Any]], root: int = 0) -> Generator:
        """Binomial-tree scatter; every rank returns its element of the
        root's ``payloads`` list."""
        seq = next(self._coll_seq)
        tag = self._ctag(seq, "scatter")
        rel = (self.rank - root) % self.size
        if self.size == 1:
            if payloads is None or len(payloads) != 1:
                raise ValueError("root must supply one payload per rank")
            return payloads[0]
        if rel == 0:
            if payloads is None or len(payloads) != self.size:
                raise ValueError("root must supply one payload per rank")
            # Keyed by relative rank; map back through the root offset.
            bucket = {r: payloads[(r + root) % self.size] for r in range(self.size)}
            mask = 1
            while mask < self.size:
                mask <<= 1
            mask >>= 1
        else:
            mask = 1
            bucket = None
            while mask < self.size:
                if rel & mask:
                    src_rel = rel - mask
                    msg: Message = yield self._crecv((src_rel + root) % self.size, tag)
                    yield self._overhead()
                    bucket = dict(msg.payload)
                    break
                mask <<= 1
            mask >>= 1
        while mask > 0:
            if rel + mask < self.size:
                dst_rel = rel + mask
                slice_keys = [k for k in bucket if dst_rel <= k < dst_rel + mask]
                sub = {k: bucket.pop(k) for k in slice_keys}
                self._csend((dst_rel + root) % self.size, sub, tag)
            mask >>= 1
        return bucket[rel]

    @_traced("allgather")
    def allgather(self, payload: Any) -> Generator:
        """Ring allgather: P-1 steps, each forwarding one block."""
        seq = next(self._coll_seq)
        blocks: List[Any] = [None] * self.size
        blocks[self.rank] = payload
        right = (self.rank + 1) % self.size
        left = (self.rank - 1) % self.size
        for step in range(self.size - 1):
            tag = self._ctag(seq, f"allgather{step}")
            send_idx = (self.rank - step) % self.size
            recv_idx = (self.rank - step - 1) % self.size
            self._csend(right, blocks[send_idx], tag)
            msg: Message = yield self._crecv(left, tag)
            yield self._overhead()
            blocks[recv_idx] = msg.payload
        return blocks

    @_traced("alltoall")
    def alltoall(self, payloads: Sequence[Any]) -> Generator:
        """Pairwise-exchange alltoall (P-1 sendrecv rounds)."""
        if len(payloads) != self.size:
            raise ValueError("alltoall needs one payload per rank")
        seq = next(self._coll_seq)
        result: List[Any] = [None] * self.size
        result[self.rank] = payloads[self.rank]
        for step in range(1, self.size):
            tag = self._ctag(seq, f"alltoall{step}")
            dst = (self.rank + step) % self.size
            src = (self.rank - step) % self.size
            tx = self._csend(dst, payloads[dst], tag)
            msg: Message = yield self._crecv(src, tag)
            yield self._overhead()
            yield tx
            result[src] = msg.payload
        return result

