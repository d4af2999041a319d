"""Typed metrics: counters, gauges, histograms, per-component registry.

Every :class:`~repro.sim.kernel.Simulation` owns one
:class:`MetricsRegistry` (``sim.metrics``). Library layers register
their metrics under a component scope (``na``, ``mercury``, ``margo``,
``ssg``, ``mona``, ``icet``, ``core``)::

    na = sim.metrics.scope("na")
    na.counter("messages").inc()
    na.histogram("transit_seconds").observe(0.002)

Names are ``<component>.<metric>``; re-registering a name as a
different metric type raises. Histograms combine fixed buckets (for
distribution reports) with a :class:`~repro.telemetry.sketch
.QuantileSketch` (for p50/p90/p99). Snapshots serialize
deterministically — they feed the bench reports and the trace digest's
sibling artifacts, so two same-seed runs must produce identical bytes.

``Histogram.observe`` is on the per-message path (every transit, RDMA
pull, compute charge and collective), so the common case makes no call:
a value at or above the sketch's ``min_value`` appends to a buffer of
:data:`OBSERVE_BATCH`, which folds into the sketch and the buckets when
full and before any read — the same ``log`` / ``ceil`` / ``bisect_left``
per value, mapped in one pass, and ``total`` summed in observation
order, so every read and snapshot is bit-identical to folding each value
as it came. The first value, zeros, negatives and smaller magnitudes
take ``QuantileSketch.add`` once what is buffered has folded. NaN and
the infinities are refused inside ``observe``, before any state changes.

Nothing on a per-event path goes through the registry (DESIGN §12):

- a total a layer already keeps is *pulled*, not pushed:
  ``scope.pulled("messages_sent", fabric, "messages_sent")`` reports the
  fabric's own int (summed over every source registered under the name)
  as a counter whenever a snapshot is taken;
- any other metric is looked up once and held as an attribute handle —
  a ``functools.cached_property`` on the layer, so the metric is
  registered at its first update exactly as a per-event lookup would
  have registered it, and every later update is a plain attribute read.

A registered metric therefore lives as long as the simulation: there is
no way to drop one while a layer still holds its handle.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from math import ceil, log
from operator import truediv
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry.sketch import QuantileSketch

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricScope", "PulledCounter"]

#: Default histogram buckets: log-spaced seconds, 1 µs .. 1000 s.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** e for e in range(-6, 4)
)

#: Values :meth:`Histogram.observe` buffers before folding them in.
OBSERVE_BATCH = 256


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount!r})")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A value that can go up and down (view size, live servers...)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket distribution + streaming quantile sketch.

    ``buckets`` are upper bounds (a final +inf bucket is implicit);
    ``observe`` feeds both the bucket counts and the sketch, so reports
    can show the coarse shape and accurate p50/p90/p99 side by side.
    ``observe`` buffers up to :data:`OBSERVE_BATCH` values and folds
    them in one pass when the buffer fills and before every read, so a
    read sees exactly what folding each value on arrival would build.
    """

    kind = "histogram"
    __slots__ = ("name", "bounds", "_bucket_counts", "_sketch", "_pending", "_room", "_floor")

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
        self._bucket_counts = [0] * (len(bounds) + 1)
        self._sketch = QuantileSketch(alpha=alpha)
        #: Observed values not folded in yet, in observation order, and
        #: how many more fit before the buffer folds.
        self._pending: List[float] = []
        self._room = OBSERVE_BATCH
        #: Values at or above it are buffered; anything else takes
        #: ``QuantileSketch.add``. ``inf`` until the sketch holds a value.
        self._floor = float("inf")

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        # NaN and the infinities fail here, with no call, before any
        # state changes: the sketch cannot hold them.
        if value - value != 0.0:
            raise ValueError(f"histogram {self.name!r} cannot observe {value!r}")
        if value >= self._floor:
            # One observation per message lands here: no call at all.
            self._pending += (value,)
            self._room -= 1
            if not self._room:
                self._fold()
        else:
            # The first value, zeros, negatives and magnitudes under the
            # sketch's ``min_value``, each after everything observed before.
            self._fold()
            sketch = self._sketch
            sketch.add(value)
            self._floor = sketch.min_value
            # First bound >= value; past the last one is the +inf bucket.
            self._bucket_counts[bisect_left(self.bounds, value)] += 1

    def _fold(self) -> None:
        """Fold the buffered values into the sketch and the buckets as
        ``QuantileSketch.add`` and a bisect per value would: the same
        ``log`` / ``ceil`` / ``bisect_left`` (mapped, so no call per
        value) and ``total`` summed in observation order
        (``tests/oracles/histogram_per_value.py`` holds the two together)."""
        pending = self._pending
        if not pending:
            return
        sketch, counts = self._sketch, self._bucket_counts
        pos = sketch._pos
        for key in map(ceil, map(truediv, map(log, pending), repeat(sketch._log_gamma))):
            pos[key] = pos[key] + 1 if key in pos else 1
        for i in map(bisect_left, repeat(self.bounds), pending):
            counts[i] += 1
        total = sketch.total
        for value in pending:
            total += value
        sketch.total = total
        sketch.count += len(pending)
        low, high = min(pending), max(pending)
        if low < sketch._min:
            sketch._min = low
        if high > sketch._max:
            sketch._max = high
        self._pending = []
        self._room = OBSERVE_BATCH

    @property
    def sketch(self) -> QuantileSketch:
        self._fold()
        return self._sketch

    @property
    def bucket_counts(self) -> List[int]:
        self._fold()
        return self._bucket_counts

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


class PulledCounter:
    """A counter whose total a layer already keeps.

    Nothing increments it: the value is read, when reported, from the
    named int attribute of every registered source and summed (two
    fabrics on one simulation report one ``na.messages_sent``). A layer
    that pulls counts each event once, in its own attribute. The value
    reads back as the float a pushed :class:`Counter` would hold, so a
    snapshot cannot tell the two apart.
    """

    kind = "counter"
    __slots__ = ("name", "sources")

    def __init__(self, name: str):
        self.name = name
        #: ``(object, attribute name)`` pairs whose values sum to the total.
        self.sources: List[Tuple[Any, str]] = []

    @property
    def value(self) -> float:
        return float(sum(getattr(source, attr) for source, attr in self.sources))

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


Metric = Union[Counter, Gauge, Histogram, PulledCounter]


class MetricScope:
    """A component-namespaced view of the registry."""

    __slots__ = ("_registry", "component")

    def __init__(self, registry: "MetricsRegistry", component: str):
        self._registry = registry
        self.component = component

    def counter(self, name: str) -> Counter:
        return self._registry.counter(f"{self.component}.{name}")

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(f"{self.component}.{name}")

    def histogram(self, name: str, **kwargs: Any) -> Histogram:
        return self._registry.histogram(f"{self.component}.{name}", **kwargs)

    def pulled(self, name: str, source: Any, attr: str) -> PulledCounter:
        return self._registry.pulled(f"{self.component}.{name}", source, attr)


class MetricsRegistry:
    """All metrics of one simulation, keyed ``<component>.<metric>``."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._scopes: Dict[str, MetricScope] = {}

    # ------------------------------------------------------------------
    def scope(self, component: str) -> MetricScope:
        # Scopes are stateless views, interned so that resolving a
        # handle allocates nothing after the component's first one.
        scope = self._scopes.get(component)
        if scope is None:
            scope = self._scopes[component] = MetricScope(self, component)
        return scope

    def _get_or_create(self, name: str, cls: type, **kwargs: Any) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, **kwargs)
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, **kwargs: Any) -> Histogram:
        return self._get_or_create(name, Histogram, **kwargs)

    def pulled(self, name: str, source: Any, attr: str) -> PulledCounter:
        """Report ``source.<attr>`` (an int the layer keeps) under
        ``name``, added to what the name's other sources report."""
        metric = self._get_or_create(name, PulledCounter)
        metric.sources.append((source, attr))
        return metric

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All metrics as a name-sorted plain dict (JSON-ready)."""
        return {name: self._metrics[name].snapshot() for name in self.names()}
