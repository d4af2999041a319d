"""A stateful pipeline: running statistics with migration on leave.

The paper's future work (3): "enable state-full pipelines, for which
shutting down a process requires data migration". This backend keeps
running statistics (count/sum/min/max per field) across iterations on
each server; when a server is asked to leave, its accumulated state is
migrated to a surviving member before shutdown, so the union of all
servers' state is invariant under resizing.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Generator, List, Optional

import numpy as np

from repro.core.backend import Backend, register_backend
from repro.na.address import Address
from repro.na.payload import VirtualPayload

__all__ = ["FieldStats", "StatisticsBackend"]


class FieldStats:
    """Mergeable running statistics for one field."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self, count: int = 0, total: float = 0.0,
                 minimum: float = math.inf, maximum: float = -math.inf):
        self.count = count
        self.total = total
        self.minimum = minimum
        self.maximum = maximum

    def update(self, values: np.ndarray) -> None:
        if values.size == 0:
            return
        self.count += int(values.size)
        self.total += float(values.sum())
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))

    def merge(self, other: "FieldStats") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def to_wire(self) -> Dict[str, float]:
        return {
            "count": self.count, "total": self.total,
            "minimum": self.minimum, "maximum": self.maximum,
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, float]) -> "FieldStats":
        return cls(int(wire["count"]), wire["total"], wire["minimum"], wire["maximum"])


class StatisticsBackend(Backend):
    """Accumulates per-field statistics over all staged blocks, across
    iterations. Stateful: supports get_state/merge_state for migration.

    Config keys: ``fields`` (list of field names; default: every point
    field found), ``bytes_per_second`` (stat-update throughput for the
    cost model; default 2 GB/s).
    """

    stateful = True

    def __init__(self, margo, name: str, config: Optional[Dict[str, Any]] = None):
        super().__init__(margo, name, config)
        self.fields: Optional[List[str]] = self.config.get("fields")
        self.bytes_per_second = float(self.config.get("bytes_per_second", 2e9))
        self.stats: Dict[str, FieldStats] = {}
        self.iterations_seen: List[int] = []
        self.provider = None

    # ------------------------------------------------------------------
    def execute(self, iteration: int) -> Generator:
        for block in self.blocks(iteration):
            payload = block.payload
            if isinstance(payload, VirtualPayload):
                yield from self.margo.compute(payload.nbytes / self.bytes_per_second)
                continue
            point_data = getattr(payload, "point_data", None)
            if point_data is None:
                continue
            names = self.fields if self.fields is not None else list(point_data)
            for field_name in names:
                values = np.asarray(point_data[field_name], dtype=np.float64)
                yield from self.margo.compute(values.nbytes / self.bytes_per_second)
                self.stats.setdefault(field_name, FieldStats()).update(values.ravel())
        self.iterations_seen.append(iteration)
        return None

    # ------------------------------------------------------------------
    # state migration
    def get_state(self) -> Dict[str, Any]:
        return {
            "stats": {name: s.to_wire() for name, s in self.stats.items()},
            "iterations_seen": list(self.iterations_seen),
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        for name, wire in state.get("stats", {}).items():
            incoming = FieldStats.from_wire(wire)
            self.stats.setdefault(name, FieldStats()).merge(incoming)
        for it in state.get("iterations_seen", []):
            if it not in self.iterations_seen:
                self.iterations_seen.append(it)


register_backend("libcolza-stats.so", StatisticsBackend)
