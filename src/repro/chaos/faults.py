"""Fault taxonomy and deterministic fault plans.

A :class:`FaultPlan` is a pure-data description of *what goes wrong
when*: link-level drops/delays/duplications, bidirectional partitions,
process crashes, hangs, slow nodes, RDMA slowdowns, and targeted SSG
gossip suppression. Plans are either hand-written by a scenario or
drawn from a named :mod:`repro.sim.rng` stream via
:meth:`FaultPlan.random` — the same seed always yields a byte-identical
schedule, which is what makes chaos runs replayable.

All process-level faults reference endpoints by *instance name* (the
``colza-3`` part of ``na+sim://nid00003/colza-3``), never by address
object, so a plan can be built before the stack it will torment.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence, Tuple

__all__ = [
    "CrashFault",
    "FaultPlan",
    "GossipSuppression",
    "HangFault",
    "LinkFault",
    "Partition",
    "RdmaFault",
    "SlowFault",
    "name_of",
]


def name_of(address) -> str:
    """Instance name behind an address (``mona-`` prefix stripped, so a
    daemon's Margo and MoNA endpoints match the same fault specs)."""
    name = str(address).rsplit("/", 1)[-1]
    if name.startswith("mona-"):
        name = name[5:]
    return name


@dataclass(frozen=True)
class LinkFault:
    """Probabilistic per-message mischief on matching links.

    ``src``/``dst`` are instance names; ``None`` is a wildcard. Each
    matching message during [start, end) independently draws drop /
    duplicate verdicts and a uniform extra delay in [0, ``delay``].
    """

    start: float
    end: float
    src: Optional[str] = None
    dst: Optional[str] = None
    drop_p: float = 0.0
    dup_p: float = 0.0
    delay: float = 0.0

    def matches(self, src_name: str, dst_name: str) -> bool:
        return (self.src is None or self.src == src_name) and (
            self.dst is None or self.dst == dst_name
        )


@dataclass(frozen=True)
class Partition:
    """Bidirectional partition: every message crossing between
    ``side_a`` and ``side_b`` is dropped during [start, end).

    An empty ``side_b`` means "everyone not in side_a" — the common
    isolate-one-node case without enumerating the rest of the machine.
    """

    start: float
    end: float
    side_a: Tuple[str, ...]
    side_b: Tuple[str, ...] = ()

    def severs(self, src_name: str, dst_name: str) -> bool:
        in_a_src, in_a_dst = src_name in self.side_a, dst_name in self.side_a
        if self.side_b:
            in_b_src, in_b_dst = src_name in self.side_b, dst_name in self.side_b
            return (in_a_src and in_b_dst) or (in_b_src and in_a_dst)
        return in_a_src != in_a_dst


@dataclass(frozen=True)
class CrashFault:
    """Kill the named daemon at ``at`` (no announcement; SWIM detects)."""

    at: float
    server: str


@dataclass(frozen=True)
class HangFault:
    """The named daemon stops responding during [start, end): every
    inbound RPC handler freezes (the ULT never yields back) and its
    outbound SWIM probes are suppressed. Indistinguishable from a crash
    to the rest of the group. With ``kill_at_end`` the process really
    dies at ``end`` — the clean way to model a hang long enough that
    SWIM (correctly, and terminally) declares it dead.
    """

    start: float
    end: float
    server: str
    kill_at_end: bool = False


@dataclass(frozen=True)
class SlowFault:
    """Multiply the named daemon's compute costs by ``factor`` during
    [start, end) — thermal throttling, a noisy neighbor."""

    start: float
    end: float
    server: str
    factor: float = 4.0


@dataclass(frozen=True)
class RdmaFault:
    """Multiply RDMA transfer costs by ``factor`` during [start, end);
    ``initiator`` (instance name) narrows it to one puller/pusher."""

    start: float
    end: float
    factor: float = 8.0
    initiator: Optional[str] = None


@dataclass(frozen=True)
class GossipSuppression:
    """Suppress SWIM probes *of* ``target`` during [start, end): direct
    pings and indirect ping-reqs about it time out, forcing false
    suspicion. ``prober`` narrows suppression to one prober; ``None``
    suppresses everyone's probes of the target."""

    start: float
    end: float
    target: str
    prober: Optional[str] = None


#: Fault types whose victims may legitimately be declared dead by SWIM
#: (the declaration reflects a real failure or unreachability, not a
#: protocol bug). Gossip suppression is deliberately absent: a
#: suppression window is expected to end in refutation, so a death of
#: its target is still an invariant violation.
_EXEMPTING = (CrashFault, HangFault, Partition)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults, plus derived conveniences."""

    faults: Tuple[object, ...] = ()
    note: str = ""

    def __iter__(self):
        return iter(self.faults)

    def of_type(self, kind) -> Tuple[object, ...]:
        return tuple(f for f in self.faults if isinstance(f, kind))

    def horizon(self) -> float:
        """Simulated time after which no fault is active any more."""
        ends = [getattr(f, "end", None) or getattr(f, "at", 0.0) for f in self.faults]
        return max(ends) if ends else 0.0

    def exempt_names(self) -> Tuple[str, ...]:
        """Instance names a monitor must allow to be declared dead."""
        names = []
        for f in self.faults:
            if not isinstance(f, _EXEMPTING):
                continue
            if isinstance(f, Partition):
                names.extend(f.side_a)
                names.extend(f.side_b)
            else:
                names.append(f.server)
        return tuple(dict.fromkeys(names))

    def describe(self) -> str:
        """Canonical multi-line rendering (stable across runs — part of
        what a determinism test can compare)."""
        lines = []
        for f in self.faults:
            parts = [type(f).__name__]
            for fld in fields(f):
                parts.append(f"{fld.name}={getattr(f, fld.name)!r}")
            lines.append(" ".join(parts))
        header = f"FaultPlan({self.note})" if self.note else "FaultPlan"
        return "\n".join([header] + sorted(lines))

    def shifted(self, dt: float) -> "FaultPlan":
        """The same plan with every ``start``/``end``/``at`` moved by
        ``dt`` — how a plan written relative to an instant is armed."""
        moved = []
        for f in self.faults:
            times = {k: getattr(f, k) + dt for k in ("start", "end", "at") if hasattr(f, k)}
            moved.append(replace(f, **times))
        return FaultPlan(tuple(moved), note=self.note)

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        rng,
        servers: Sequence[str],
        horizon: float,
        client: Optional[str] = None,
        max_faults: int = 6,
        crash_budget: int = 1,
        note: str = "random",
    ) -> "FaultPlan":
        """Draw a plan from an rng stream (numpy Generator).

        Link mischief is confined to client<->server links so SWIM's
        server-to-server gossip stays clean (a random plan must not be
        able to fabricate a false death on its own); process faults
        (crash, slow) hit random servers. Same stream state, same
        arguments -> identical plan.
        """
        servers = list(servers)
        faults: list = []
        crashes_left = crash_budget if len(servers) > 2 else 0
        n = int(rng.integers(2, max_faults + 1))
        for _ in range(n):
            start = float(rng.uniform(0.0, horizon * 0.6))
            length = float(rng.uniform(0.5, max(0.6, horizon * 0.3)))
            end = min(start + length, horizon)
            kind = int(rng.integers(0, 4))
            if kind == 0 and client is not None:
                to_server = bool(rng.integers(0, 2))
                src, dst = (client, None) if to_server else (None, client)
                faults.append(
                    LinkFault(
                        start, end, src=src, dst=dst,
                        drop_p=float(rng.uniform(0.02, 0.15)),
                        dup_p=float(rng.uniform(0.0, 0.2)),
                    )
                )
            elif kind == 1 and client is not None:
                faults.append(
                    LinkFault(start, end, src=client, delay=float(rng.uniform(0.01, 0.1)))
                )
            elif kind == 2:
                victim = servers[int(rng.integers(0, len(servers)))]
                faults.append(SlowFault(start, end, server=victim,
                                        factor=float(rng.uniform(2.0, 6.0))))
            elif kind == 3 and crashes_left > 0:
                crashes_left -= 1
                victim = servers[int(rng.integers(0, len(servers)))]
                faults.append(CrashFault(at=start, server=victim))
            else:
                faults.append(RdmaFault(start, end, factor=float(rng.uniform(2.0, 8.0))))
        # At most one crash victim: a random plan must leave a quorum.
        return cls(faults=tuple(faults), note=note)
