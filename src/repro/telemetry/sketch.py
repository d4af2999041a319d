"""A deterministic, mergeable streaming quantile sketch.

DDSketch-style log-spaced buckets (Masson et al., VLDB'19): a value
``v > 0`` lands in bucket ``ceil(log_gamma(v))`` with
``gamma = (1 + alpha) / (1 - alpha)``, so every value in a bucket is
within relative error ``alpha`` of the bucket's representative value.
Negative values mirror into a second bucket map; magnitudes below
``min_value`` (including exact zeros) collapse into a dedicated zero
bucket and are reported as ``0.0``.

Accuracy contract (the property suite pins this):

- ``quantile(q)`` is within relative error ``alpha`` of the exact
  rank-``floor(q * (n - 1))`` order statistic (numpy's
  ``percentile(..., method="lower")``), or within absolute error
  ``min_value`` when that statistic's magnitude is below ``min_value``;
- ``merge`` is exact: ``sketch(A).merge(sketch(B))`` has identical
  bucket counts, count, min and max to ``sketch(A + B)`` built with the
  same parameters — so identical quantiles. (``total`` is a float
  accumulator and may differ by summation-order roundoff only.)

Everything is integer bucket counts plus exact min/max/sum — no
randomness, no floating-point accumulation order dependence — so two
same-seed simulation runs produce identical sketches.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["QuantileSketch"]


class QuantileSketch:
    """Streaming quantiles with bounded relative error.

    Parameters
    ----------
    alpha:
        Relative-error bound (default 1%).
    min_value:
        Magnitudes below this collapse into the zero bucket.
    """

    __slots__ = (
        "alpha", "min_value", "_gamma", "_log_gamma",
        "_pos", "_neg", "_zero", "count", "total", "_min", "_max",
    )

    def __init__(self, alpha: float = 0.01, min_value: float = 1e-12):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
        self.alpha = alpha
        self.min_value = min_value
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._zero = 0
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # ------------------------------------------------------------------
    def _key(self, magnitude: float) -> int:
        return int(math.ceil(math.log(magnitude) / self._log_gamma))

    def _representative(self, key: int) -> float:
        # Midpoint (harmonic) of the bucket (gamma^(k-1), gamma^k]: within
        # alpha relative error of every value in the bucket.
        return 2.0 * self._gamma ** key / (self._gamma + 1.0)

    def add(self, value: float, weight: int = 1) -> "QuantileSketch":
        """Fold one observation (optionally ``weight`` repeats) in."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight!r}")
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot add NaN to a quantile sketch")
        if abs(value) < self.min_value:
            self._zero += weight
        elif value > 0:
            key = self._key(value)
            self._pos[key] = self._pos.get(key, 0) + weight
        else:
            key = self._key(-value)
            self._neg[key] = self._neg.get(key, 0) + weight
        self.count += weight
        self.total += value * weight
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        return self

    def extend(self, values: Iterable[float]) -> "QuantileSketch":
        for v in values:
            self.add(v)
        return self

    # ------------------------------------------------------------------
    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float:
        """The rank-``floor(q * (n - 1))`` order statistic, within alpha.

        Results are clamped to the exact observed [min, max], so
        ``quantile(0.0)`` and ``quantile(1.0)`` are exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            raise ValueError("quantile of an empty sketch")
        # The extremes are tracked exactly; representatives may sit up to
        # alpha away from them, so answer from the exact bounds directly.
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        rank = int(math.floor(q * (self.count - 1)))
        seen = 0
        # Ascending value order: negatives from largest magnitude down,
        # then zeros, then positives from smallest magnitude up.
        for key in sorted(self._neg, reverse=True):
            seen += self._neg[key]
            if seen > rank:
                return self._clamp(-self._representative(key))
        seen += self._zero
        if seen > rank:
            return self._clamp(0.0)
        for key in sorted(self._pos):
            seen += self._pos[key]
            if seen > rank:
                return self._clamp(self._representative(key))
        # Unreachable unless counts were corrupted externally.
        raise RuntimeError("sketch bucket counts do not sum to count")

    def _clamp(self, value: float) -> float:
        assert self._min is not None and self._max is not None
        return min(max(value, self._min), self._max)

    def quantiles(self, qs: Iterable[float]) -> List[float]:
        return [self.quantile(q) for q in qs]

    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into ``self`` (exact; requires equal params)."""
        if (other.alpha, other.min_value) != (self.alpha, self.min_value):
            raise ValueError(
                "cannot merge sketches with different parameters: "
                f"({self.alpha}, {self.min_value}) vs ({other.alpha}, {other.min_value})"
            )
        for key, cnt in other._pos.items():
            self._pos[key] = self._pos.get(key, 0) + cnt
        for key, cnt in other._neg.items():
            self._neg[key] = self._neg.get(key, 0) + cnt
        self._zero += other._zero
        self.count += other.count
        self.total += other.total
        for bound in (other._min, other._max):
            if bound is None:
                continue
            if self._min is None or bound < self._min:
                self._min = bound
            if self._max is None or bound > self._max:
                self._max = bound
        return self

    # ------------------------------------------------------------------
    def state(self) -> Tuple:
        """Canonical state tuple (equality = identical quantiles).

        Excludes ``total``: it is a float accumulator whose value can
        differ by summation-order roundoff between a merged sketch and
        one built from the concatenated stream.
        """
        return (
            self.alpha,
            self.min_value,
            tuple(sorted(self._pos.items())),
            tuple(sorted(self._neg.items())),
            self._zero,
            self.count,
            self._min,
            self._max,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return self.state() == other.state()

    def __len__(self) -> int:
        return self.count

