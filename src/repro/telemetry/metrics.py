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
from math import ceil, log
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry.sketch import QuantileSketch

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricScope", "PulledCounter"]

#: Default histogram buckets: log-spaced seconds, 1 µs .. 1000 s.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** e for e in range(-6, 4)
)


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

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


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

    def components(self) -> List[str]:
        return sorted({name.split(".", 1)[0] for name in self._metrics})

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All metrics as a name-sorted plain dict (JSON-ready)."""
        return {name: self._metrics[name].snapshot() for name in self.names()}
