"""Tracing from outside the program: phase spans and a layer sampler.

Two instruments, both owned by the benchmark and attached around its
own calls into public functions of ``repro`` (nothing inside ``repro``
is edited or monkey-patched):

- :class:`PhaseRecorder` — one span per benchmark phase (``inputs``,
  ``setup``, each ``iteration`` / ``resize`` / ``recover``, ``report``,
  ``check``) with id, parent id and start/end on three clocks: host
  CPU, host wall and simulated time. Always on; a section records a few
  dozen of them.
- :class:`LayerSampler` — a weighted ``SIGPROF`` sampler, on only in
  the traced repetition. Every 2 ms of CPU a tick charges the *whole*
  wall-clock delta since the previous tick to the innermost frame whose
  module is ``repro.<pkg>``, so a 50 ms NumPy call is billed in full to
  the package that made it. ``gc.callbacks`` bracket every collection
  and bill it to the ``py.gc`` pseudo-layer instead.
"""

from __future__ import annotations

import gc
import json
import signal
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LayerSampler", "PhaseRecorder", "PhaseSpan", "TIMED_PHASES"]

#: Phase kinds that make up the timed section (``run_cpu_s``).
TIMED_PHASES = ("iteration", "resize", "recover")

SAMPLE_INTERVAL_S = 0.002

#: ``repro.testing`` (the drive loop) is a module, not a package; its
#: time belongs with the harness that calls it.
_LAYER_ALIASES = {"testing": "bench"}


@dataclass
class PhaseSpan:
    id: int
    parent: Optional[int]
    kind: str
    tags: Dict[str, Any]
    cpu0: float
    wall0: float
    sim0: Optional[float]
    cpu1: float = 0.0
    wall1: float = 0.0
    sim1: Optional[float] = None

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0

    @property
    def sim(self) -> Optional[float]:
        if self.sim0 is None or self.sim1 is None:
            return None
        return self.sim1 - self.sim0


@dataclass
class PhaseRecorder:
    """Nested benchmark-phase spans, kept in memory until the end."""

    spans: List[PhaseSpan] = field(default_factory=list)
    #: Set by the workload once its Simulation exists.
    sim: Any = None
    #: Called after every top-level span closes (the section hangs its
    #: speed probe here, so one runs between any two timed operations).
    on_close: Optional[Callable[[PhaseSpan], None]] = None
    _stack: List[PhaseSpan] = field(default_factory=list)

    def _sim_now(self) -> Optional[float]:
        return None if self.sim is None else float(self.sim.now)

    @contextmanager
    def span(self, kind: str, **tags: Any) -> Iterator[PhaseSpan]:
        parent = self._stack[-1].id if self._stack else None
        span = PhaseSpan(
            len(self.spans), parent, kind, tags,
            time.process_time(), time.perf_counter(), self._sim_now(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.cpu1 = time.process_time()
            span.wall1 = time.perf_counter()
            span.sim1 = self._sim_now()
            if parent is None and self.on_close is not None:
                self.on_close(span)

    def current_kind(self) -> str:
        """Kind of the outermost open span below the root: samples taken
        inside a nested span are billed to the top-level phase."""
        return self._stack[0].kind if self._stack else "outside"

    def of_kind(self, *kinds: str) -> List[PhaseSpan]:
        return [s for s in self.spans if s.kind in kinds and s.parent is None]

    def cpu_of(self, *kinds: str) -> float:
        return sum(s.cpu for s in self.of_kind(*kinds))

    # ------------------------------------------------------------------
    def write_chrome_trace(
        self, path: str, layers: Optional[Dict[str, Dict[str, float]]] = None
    ) -> str:
        """Chrome ``trace_event`` JSON: the phase spans twice, once on
        the host wall clock (pid 1) and once on the simulated clock
        (pid 2), so both timelines open side by side in Perfetto."""
        if not self.spans:
            raise ValueError("no phase spans recorded")
        origin = self.spans[0].wall0
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "host wall clock"}},
            {"ph": "M", "pid": 2, "name": "process_name", "args": {"name": "simulated clock"}},
        ]
        for s in self.spans:
            args = dict(s.tags, id=s.id, parent=s.parent, cpu_s=s.cpu,
                        sim_start=s.sim0, sim_end=s.sim1)
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "name": s.kind,
                "ts": (s.wall0 - origin) * 1e6, "dur": (s.wall1 - s.wall0) * 1e6,
                "args": args,
            })
            if s.sim is not None:
                events.append({
                    "ph": "X", "pid": 2, "tid": 1, "name": s.kind,
                    "ts": s.sim0 * 1e6, "dur": s.sim * 1e6, "args": args,
                })
        payload: Dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
        if layers is not None:
            payload["otherData"] = {"layer_seconds_by_phase": layers}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        return path


class LayerSampler:
    """Weighted SIGPROF sampler attributing host time to ``repro`` packages.

    ``seconds[(phase, layer)]`` sums to the wall time between
    :meth:`start` and :meth:`stop` exactly: every interval between two
    ticks (or a tick and a GC boundary) is charged to exactly one
    bucket.
    """

    def __init__(self, phase_of: Callable[[], str]):
        self._phase_of = phase_of
        self.seconds: Dict[Tuple[str, str], float] = defaultdict(float)
        #: Collections finished, per phase.
        self.gc_collections: Dict[str, int] = defaultdict(int)
        #: Wall time between start() and stop().
        self.wall_s = 0.0
        #: Time spent inside this sampler's own handlers (the part of the
        #: tracing overhead it can see; signal delivery itself is extra).
        self.overhead_s = 0.0
        self._started = 0.0
        self._layer_of_code: Dict[Any, Optional[str]] = {}
        self._last = 0.0
        self._gc_started: Optional[float] = None
        self._old_handler: Any = None

    # ------------------------------------------------------------------
    def _layer(self, frame) -> str:
        """Innermost ``repro.<pkg>`` on the stack, else ``other``."""
        cache = self._layer_of_code
        while frame is not None:
            code = frame.f_code
            try:
                layer = cache[code]
            except KeyError:
                module = frame.f_globals.get("__name__", "")
                layer = None
                if module.startswith("repro."):
                    layer = module.split(".", 2)[1]
                    layer = _LAYER_ALIASES.get(layer, layer)
                cache[code] = layer
            if layer is not None:
                return layer
            frame = frame.f_back
        return "other"

    def _charge(self, now: float, layer: str) -> None:
        self.seconds[(self._phase_of(), layer)] += now - self._last
        self._last = now

    def _on_tick(self, _signum, frame) -> None:
        if self._gc_started is not None:
            return  # delivered inside a gc callback; the stop hook accounts
        now = time.perf_counter()
        self._charge(now, self._layer(frame))
        self.overhead_s += time.perf_counter() - now

    def _on_gc(self, phase: str, _info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            # Time up to here belongs to whoever triggered the collection.
            self._charge(now, self._layer(sys._getframe(1)))
            self._gc_started = now
        elif self._gc_started is not None:
            self._gc_started = None
            self.gc_collections[self._phase_of()] += 1
            self._charge(now, "py.gc")
        self.overhead_s += time.perf_counter() - now

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._started = self._last = time.perf_counter()
        gc.callbacks.append(self._on_gc)
        self._old_handler = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old_handler)
        gc.callbacks.remove(self._on_gc)
        now = time.perf_counter()
        self._charge(now, "other")
        self.wall_s = now - self._started

    # ------------------------------------------------------------------
    def by_layer(self, *phases: str) -> Dict[str, float]:
        """Seconds per layer, summed over the given phase kinds."""
        out: Dict[str, float] = defaultdict(float)
        for (phase, layer), secs in self.seconds.items():
            if phase in phases:
                out[layer] += secs
        return dict(out)

    def by_phase(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = defaultdict(dict)
        for (phase, layer), secs in sorted(self.seconds.items()):
            out[phase][layer] = secs
        return dict(out)
