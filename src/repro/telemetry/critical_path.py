"""Critical-path analysis: where did the timestep's wall clock go?

Walks one iteration's span subtree and attributes every instant of the
parent span to exactly one layer — ``fabric`` (NA sends, RDMA, MoNA /
IceT / MPI collectives), ``compute`` (Margo compute charges, pipeline
execution), ``gossip`` (SWIM), ``protocol`` (Colza client/server RPC
machinery) — or to ``idle`` when no descendant span is active.

Attribution is a sweep line over the elementary intervals induced by
descendant span boundaries, clipped to the parent span, with the
active spans in a heap; at each instant the *deepest* active span wins
(ties broken by later start, then larger span id — all deterministic)
and widths accumulate left to right. Because every instant is
assigned exactly once, the conservation law

    sum(attribution values) + idle == parent duration

holds by construction to float roundoff; the conservation test fleet
pins it across chaos scenarios.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sim.trace import Span

__all__ = ["Attribution", "CriticalPathAnalyzer", "LAYER_OF", "layer_of"]

#: Span-name prefix (up to the first dot) -> layer.
LAYER_OF: Dict[str, str] = {
    "na": "fabric",
    "mona": "fabric",
    "icet": "fabric",
    "mpi": "fabric",
    "pipeline": "compute",
    "catalyst": "compute",
    "dataspaces": "compute",
    "damaris": "compute",
    "ssg": "gossip",
    "colza": "protocol",
    "hg": "protocol",
    "margo": "protocol",
}

#: Span names that override their prefix's layer.
_NAME_OVERRIDES: Dict[str, str] = {
    "margo.compute": "compute",
}

LAYERS: Tuple[str, ...] = ("fabric", "compute", "gossip", "protocol", "other")


def layer_of(span_name: str) -> str:
    """Layer of a span name (``other`` for unknown prefixes)."""
    override = _NAME_OVERRIDES.get(span_name)
    if override is not None:
        return override
    prefix = span_name.split(".", 1)[0]
    return LAYER_OF.get(prefix, "other")


@dataclass
class Attribution:
    """Exclusive per-layer time for one parent span."""

    span_id: int
    name: str
    duration: float
    layers: Dict[str, float] = field(default_factory=dict)
    #: Exclusive time per span *name* (finer grain than layers).
    by_name: Dict[str, float] = field(default_factory=dict)
    idle: float = 0.0

    @property
    def busy(self) -> float:
        return sum(self.layers.values())

    def check_conservation(self, rel_tol: float = 1e-9, abs_tol: float = 1e-9) -> float:
        """Residual of busy + idle - duration; raises if non-conserving."""
        residual = self.busy + self.idle - self.duration
        bound = abs_tol + rel_tol * abs(self.duration)
        if abs(residual) > bound:
            raise AssertionError(
                f"time not conserved for span {self.name!r} (#{self.span_id}): "
                f"busy={self.busy!r} + idle={self.idle!r} != duration={self.duration!r} "
                f"(residual {residual!r})"
            )
        return residual

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "duration": self.duration,
            "layers": {k: self.layers[k] for k in sorted(self.layers)},
            "by_name": {k: self.by_name[k] for k in sorted(self.by_name)},
            "idle": self.idle,
        }


class CriticalPathAnalyzer:
    """Attributes a span's wall clock across its descendant spans."""

    def __init__(self, layer_fn=layer_of):
        self._layer_fn = layer_fn

    # ------------------------------------------------------------------
    def attribute(self, span: Span) -> Attribution:
        """Sweep-line attribution of ``span``'s duration (see module doc)."""
        if span.end is None:
            raise ValueError(f"span {span.name!r} (#{span.id}) is unfinished")
        lo, hi = span.start, span.end
        out = Attribution(span_id=span.id, name=span.name, duration=hi - lo)
        if hi <= lo:
            return out

        # Finished descendants clipped to the parent window, as heap
        # entries (start, -depth, -span.start, -id, end, name).
        intervals: List[Tuple[float, int, float, int, float, str]] = []
        for child in span.children:
            self._collect(child, depth=1, lo=lo, hi=hi, out=intervals)
        if not intervals:
            out.idle = out.duration
            return out

        boundaries = sorted({lo, hi, *(i[0] for i in intervals), *(i[4] for i in intervals)})
        intervals.sort(reverse=True)  # pop() hands them out by start
        # Min-heap of the spans begun at or before ``left``: the top is
        # the deepest (ties -> later start, larger id); one that ended
        # at or before ``left`` is discarded when it surfaces.
        active: List[Tuple[int, float, int, float, str]] = []
        for left, right in zip(boundaries, boundaries[1:]):
            while intervals and intervals[-1][0] <= left:
                heapq.heappush(active, intervals.pop()[1:])
            while active and active[0][3] <= left:
                heapq.heappop(active)
            width = right - left
            if not active:
                out.idle += width
            else:
                name = active[0][4]
                layer = self._layer_fn(name)
                out.layers[layer] = out.layers.get(layer, 0.0) + width
                out.by_name[name] = out.by_name.get(name, 0.0) + width
        return out

    def _collect(
        self,
        span: Span,
        depth: int,
        lo: float,
        hi: float,
        out: List[Tuple[float, int, float, int, float, str]],
    ) -> None:
        if span.end is not None:
            start = max(span.start, lo)
            end = min(span.end, hi)
            if end > start:
                out.append((start, -depth, -span.start, -span.id, end, span.name))
        for child in span.children:
            self._collect(child, depth + 1, lo, hi, out)

    # ------------------------------------------------------------------
    def iteration_breakdown(self, span: Span) -> Dict[str, object]:
        """Report-ready attribution of one ``colza.iteration`` span."""
        attribution = self.attribute(span)
        attribution.check_conservation()
        phases: Dict[str, float] = {}
        for child in span.children:
            if child.end is not None and child.name.startswith("colza."):
                phase = child.name.split(".", 1)[1]
                phases[phase] = phases.get(phase, 0.0) + child.duration
        return {
            "iteration": span.tags.get("iteration"),
            "duration": attribution.duration,
            "phases": {k: phases[k] for k in sorted(phases)},
            "layers": {k: attribution.layers[k] for k in sorted(attribution.layers)},
            "idle": attribution.idle,
        }
