"""``Histogram`` as it was while every ``observe`` folded its value into
the sketch and the buckets at once: the reference the batched
:class:`repro.telemetry.metrics.Histogram` is held to, snapshot for
snapshot, bit for bit (``tests/test_telemetry_sketch.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil, log
from typing import Any, Dict, Optional, Sequence

from repro.telemetry.metrics import DEFAULT_BUCKETS
from repro.telemetry.sketch import QuantileSketch


class Histogram:
    """Fixed-bucket distribution + streaming quantile sketch.

    ``buckets`` are upper bounds (a final +inf bucket is implicit);
    ``observe`` feeds both the bucket counts and the sketch, so reports
    can show the coarse shape and accurate p50/p90/p99 side by side.
    """

    kind = "histogram"
    __slots__ = ("name", "bounds", "bucket_counts", "sketch")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        alpha: float = 0.01,
    ):
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r} buckets must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sketch = QuantileSketch(alpha=alpha)

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        sketch = self.sketch
        # Sketch first: it rejects what it cannot hold (NaN, infinities)
        # before mutating itself, so a refused value bumps no bucket.
        if sketch.count and value >= sketch.min_value:
            # One observation per message lands here: QuantileSketch.add
            # for a positive value into a non-empty sketch, spelled out
            # (tests/test_telemetry_sketch.py holds the two together).
            key = ceil(log(value) / sketch._log_gamma)
            pos = sketch._pos
            pos[key] = pos[key] + 1 if key in pos else 1
            sketch.count += 1
            sketch.total += value
            if value < sketch._min:
                sketch._min = value
            elif value > sketch._max:
                sketch._max = value
        else:
            sketch.add(value)
        # First bound >= value; past the last one is the +inf bucket.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def count(self) -> int:
        return self.sketch.count

    @property
    def total(self) -> float:
        return self.sketch.total

    @property
    def min(self) -> Optional[float]:
        return self.sketch.min

    @property
    def max(self) -> Optional[float]:
        return self.sketch.max

    @property
    def mean(self) -> Optional[float]:
        return self.sketch.mean

    def quantile(self, q: float) -> float:
        return self.sketch.quantile(q)

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
        }
        if self.count:
            out.update(
                min=self.min,
                max=self.max,
                mean=self.mean,
                p50=self.quantile(0.50),
                p90=self.quantile(0.90),
                p99=self.quantile(0.99),
            )
        out["buckets"] = {
            self._bucket_label(i): c
            for i, c in enumerate(self.bucket_counts)
            if c
        }
        return out

    def _bucket_label(self, idx: int) -> str:
        if idx == len(self.bounds):
            return "+inf"
        return repr(self.bounds[idx])
