"""MPI communicators (black-box vendor semantics).

An :class:`MpiComm` mirrors :class:`repro.mona.MonaComm`'s generator
interface so either can be injected into the VTK/IceT controllers. The
differences, faithful to the paper:

- collectives are *opaque*: all ranks rendezvous in a shared
  per-communicator engine; once the last rank arrives, results are
  computed exactly (NumPy) and every rank completes after the
  calibrated vendor collective time;
- blocking calls **spin**, holding the rank's core while waiting
  (footnote 3: vendor MPI does not yield to other tasks);
- communicators can only shrink by construction (`split`, `subset`) —
  never grow.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.mona.ops import ReduceOp, SUM
from repro.mpi.collective_cost import collective_time
from repro.na.payload import payload_nbytes
from repro.sim.kernel import Event

__all__ = ["MpiComm"]


class _Collective:
    """One in-flight collective instance: arrivals + per-rank events."""

    def __init__(self, kind: str, size: int):
        self.kind = kind
        self.size = size
        self.payloads: Dict[int, Any] = {}
        self.extras: Dict[int, Any] = {}
        self.events: Dict[int, Event] = {}
        self.done = False


class _CommGroup:
    """Shared state for one communicator across all its rank handles."""

    _ids = itertools.count()

    def __init__(self, world, members: List[int]):
        self.world = world
        self.members = list(members)  # world ranks, comm-rank order
        self.size = len(members)
        self.comm_id = f"{world.name}.comm{next(self._ids)}"
        self._pending: Dict[int, _Collective] = {}
        self._derived: Dict[Tuple, "_CommGroup"] = {}

    # ------------------------------------------------------------------
    def arrive(self, seq: int, comm_rank: int, kind: str, payload: Any, extra: Any) -> Event:
        coll = self._pending.get(seq)
        if coll is None:
            coll = _Collective(kind, self.size)
            self._pending[seq] = coll
        if coll.kind != kind:
            raise RuntimeError(
                f"collective mismatch on {self.comm_id} seq {seq}: "
                f"{coll.kind!r} vs {kind!r} (ranks diverged)"
            )
        ev = Event(self.world.sim, name=f"{self.comm_id}.{kind}.{seq}.{comm_rank}")
        coll.payloads[comm_rank] = payload
        coll.extras[comm_rank] = extra
        coll.events[comm_rank] = ev
        if len(coll.events) == self.size:
            self._complete(seq, coll)
        return ev

    def _complete(self, seq: int, coll: _Collective) -> None:
        del self._pending[seq]
        results = self._compute(coll)
        nbytes = max(
            (payload_nbytes(p) for p in coll.payloads.values() if p is not None),
            default=0,
        )
        duration = collective_time(self.world.profile, coll.kind, self.size, nbytes)
        sim = self.world.sim
        for rank, ev in coll.events.items():
            sim._schedule_at(sim.now + duration, lambda ev=ev, r=rank: ev.succeed(results[r]))

    # ------------------------------------------------------------------
    def _compute(self, coll: _Collective) -> Dict[int, Any]:
        kind = coll.kind
        size = self.size
        payloads = coll.payloads
        extras = coll.extras
        if kind == "barrier":
            return {r: None for r in range(size)}
        if kind == "bcast":
            roots = {extras[r] for r in range(size)}
            if len(roots) != 1:
                raise RuntimeError(f"bcast root mismatch: {roots}")
            root = roots.pop()
            return {r: payloads[root] for r in range(size)}
        if kind in ("reduce", "allreduce"):
            op: ReduceOp = next(iter(extras.values()))["op"]
            accum = payloads[0]
            for r in range(1, size):
                accum = op(accum, payloads[r])
            if kind == "allreduce":
                return {r: accum for r in range(size)}
            root = extras[0]["root"]
            return {r: (accum if r == root else None) for r in range(size)}
        if kind == "gather":
            root = extras[0]
            ordered = [payloads[r] for r in range(size)]
            return {r: (ordered if r == root else None) for r in range(size)}
        if kind == "allgather":
            ordered = [payloads[r] for r in range(size)]
            return {r: list(ordered) for r in range(size)}
        if kind == "scatter":
            root = extras[0]
            supply = payloads[root]
            if supply is None or len(supply) != size:
                raise ValueError("scatter root must supply one payload per rank")
            return {r: supply[r] for r in range(size)}
        if kind == "alltoall":
            for r in range(size):
                if len(payloads[r]) != size:
                    raise ValueError("alltoall needs one payload per rank")
            return {r: [payloads[s][r] for s in range(size)] for r in range(size)}
        if kind == "split":
            return self._compute_split(coll)
        raise AssertionError(kind)  # pragma: no cover

    def _compute_split(self, coll: _Collective) -> Dict[int, Any]:
        by_color: Dict[Any, List[Tuple[Any, int, int]]] = {}
        for comm_rank in range(self.size):
            color, key = coll.payloads[comm_rank]
            if color is None:  # MPI_UNDEFINED
                continue
            by_color.setdefault(color, []).append((key, comm_rank, self.members[comm_rank]))
        results: Dict[int, Any] = {r: None for r in range(self.size)}
        for color in sorted(by_color, key=repr):
            entries = sorted(by_color[color])
            group = _CommGroup(self.world, [wr for _, _, wr in entries])
            for new_rank, (_, comm_rank, _) in enumerate(entries):
                results[comm_rank] = MpiComm(self.world, group, new_rank)
        return results

    # ------------------------------------------------------------------
    def derived(self, kind: str, key: Tuple, idx: int) -> "_CommGroup":
        """Symmetric local derivation (dup/subset): same args on every
        member map to the same shared group object."""
        cache_key = (kind, key, idx)
        group = self._derived.get(cache_key)
        if group is None:
            if kind == "dup":
                members = list(self.members)
            else:
                members = [self.members[r] for r in key]
            group = _CommGroup(self.world, members)
            self._derived[cache_key] = group
        return group


class MpiComm:
    """One rank's handle on a communicator."""

    def __init__(self, world, group: _CommGroup, rank: int):
        self.world = world
        self.group = group
        self.rank = rank
        self.size = group.size
        self.world_rank = group.members[rank]
        self._seq = itertools.count()
        self._derive_counts: Dict[Tuple, itertools.count] = {}
        self._xstream = world.xstream(self.world_rank)
        self._endpoint = world.endpoints[self.world_rank]

    # ------------------------------------------------------------------
    @property
    def comm_id(self) -> str:
        return self.group.comm_id

    @property
    def instance(self):
        """Interface parity with MonaComm (gives ``.sim`` access)."""
        return self

    @property
    def sim(self):
        return self.world.sim

    @property
    def address(self):
        return self._endpoint.address

    # ------------------------------------------------------------------
    # p2p (spinning, like real MPI blocking calls)
    def isend(self, dest: int, payload: Any, tag: Hashable = 0) -> Event:
        dest_ep = self.world.endpoints[self.group.members[dest]]
        return self._endpoint.send(dest_ep.address, payload, tag=(self.comm_id, tag))

    def irecv(self, source: Optional[int] = None, tag: Hashable = 0) -> Event:
        src = (
            self.world.endpoints[self.group.members[source]].address
            if source is not None
            else None
        )
        return self._endpoint.recv(tag=(self.comm_id, tag), source=src)

    def send(self, dest: int, payload: Any, tag: Hashable = 0) -> Generator:
        yield from self._xstream.spin_wait(self.isend(dest, payload, tag))

    def recv(self, source: Optional[int] = None, tag: Hashable = 0) -> Generator:
        msg = yield from self._xstream.spin_wait(self.irecv(source, tag))
        return msg.payload

    def sendrecv(self, dest: int, payload: Any, source: int, tag: Hashable = 0) -> Generator:
        tx = self.isend(dest, payload, tag)
        rx = self.irecv(source, tag)
        msg = yield from self._xstream.spin_wait(rx)
        yield tx
        return msg.payload

    # ------------------------------------------------------------------
    # collectives (engine-rendezvous + calibrated vendor time)
    def _collective(self, kind: str, payload: Any = None, extra: Any = None) -> Generator:
        seq = next(self._seq)
        span = self.sim.trace.begin(
            f"mpi.{kind}", comm=self.comm_id, rank=self.rank, size=self.size
        )
        ev = self.group.arrive(seq, self.rank, kind, payload, extra)
        result = yield from self._xstream.spin_wait(ev)
        self.sim.trace.end(span)
        return result

    def barrier(self) -> Generator:
        return (yield from self._collective("barrier"))

    def bcast(self, payload: Any, root: int = 0) -> Generator:
        return (yield from self._collective("bcast", payload, root))

    def reduce(self, payload: Any, op: ReduceOp = SUM, root: int = 0) -> Generator:
        return (yield from self._collective("reduce", payload, {"op": op, "root": root}))

    def allreduce(self, payload: Any, op: ReduceOp = SUM) -> Generator:
        return (yield from self._collective("allreduce", payload, {"op": op}))

    def gather(self, payload: Any, root: int = 0) -> Generator:
        return (yield from self._collective("gather", payload, root))

    def scatter(self, payloads: Optional[Sequence[Any]], root: int = 0) -> Generator:
        return (yield from self._collective("scatter", payloads, root))

    def allgather(self, payload: Any) -> Generator:
        return (yield from self._collective("allgather", payload))

    def alltoall(self, payloads: Sequence[Any]) -> Generator:
        return (yield from self._collective("alltoall", payloads))

    def split(self, color: Any, key: int = 0) -> Generator:
        """MPI_Comm_split; color None = MPI_UNDEFINED (returns None)."""
        return (yield from self._collective("split", (color, key)))

    def start(self, gen: Generator, name: str = "mpi-icoll"):
        """Background task wrapper (parity with MonaComm.start)."""
        return self.sim.spawn(gen, name=name)

    # ------------------------------------------------------------------
    # derived communicators (symmetric local calls)
    def dup(self) -> "MpiComm":
        key = ("dup", ())
        idx = next(self._derive_counts.setdefault(key, itertools.count()))
        group = self.group.derived("dup", (), idx)
        return MpiComm(self.world, group, self.rank)

    def subset(self, ranks: Sequence[int]) -> Optional["MpiComm"]:
        ranks = tuple(ranks)
        key = ("subset", ranks)
        idx = next(self._derive_counts.setdefault(key, itertools.count()))
        group = self.group.derived("subset", ranks, idx)
        if self.rank not in ranks:
            return None
        return MpiComm(self.world, group, ranks.index(self.rank))

