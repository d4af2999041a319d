"""SimTSan: a yield-point race detector for cooperative tasks.

Under the DES kernel only one task runs at a time, so classic data
races cannot happen — the failure mode is the *atomicity violation*: a
task reads shared state, yields (an RPC, a timeout, an RDMA pull), and
another task mutates that state before the reader resumes. The reader
then acts on a snapshot the rest of the system no longer agrees with —
exactly how elastic staging services corrupt frozen views and 2PC
bookkeeping.

Semantics (DESIGN §9). Every kernel resume bumps the resumed task's
logical clock (:attr:`repro.sim.Task.clock`); two accesses with equal
clock values happened inside one uninterrupted run slice. For a
:class:`Shared` container the detector records, per key and per task,
the clock at the task's most recent read. A write by task *W* flags a
race against every other live task *T* whose recorded read clock still
equals ``T.clock`` — *T* read the value, has not been resumed since,
and is therefore suspended at a yield point while *W* rewrites the
state under it. Records from earlier slices are pruned, not flagged:
once a task resumes, what it does with previously-read values is
beyond a dynamic tool's visibility (and re-validation patterns like
the provider's activation epochs exist precisely for that case).

Everything is opt-in and observer-effect-free. A :class:`Shared` *is* a
plain ``dict`` — it overrides no dict method, so with no detector
installed an access is the dict operation and nothing else — that
registers itself, weakly, with its simulation. :meth:`SimTSan.install`
switches the class of every live container of that simulation to an
observing subclass whose methods report each access first, containers
built while a detector is installed are born observing, and
:meth:`SimTSan.uninstall` switches them back (DESIGN §9). Installing a
detector changes no scheduling decision — the same seed still produces
the same trace, plus diagnostics. Race
diagnostics go three ways: a :class:`RaceReport` on
:attr:`SimTSan.races`, a ``simtsan.race`` zero-length span with
span-linked tags (object label, key, reader/writer tasks and source
sites) in the telemetry tracer, and a ``simtsan.races`` counter.

Meta-level observers (the chaos :class:`InvariantMonitor`) read
protocol state without being part of the protocol; they wrap their
inspection in :func:`untracked` so auditing a dict is never mistaken
for racing on it.
"""

from __future__ import annotations

import os
import sys
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = ["RaceReport", "Shared", "SimTSan", "tracked", "untracked"]

#: Sentinel key for container-level reads (iteration, len, truthiness):
#: they observe every key at once, so any later write conflicts.
_WHOLE = "<container>"

#: Per-key read tables are pruned when they exceed this many tasks
#: (short-lived RPC handler tasks would otherwise accumulate forever).
_PRUNE_AT = 32


def _site() -> str:
    """``pkg/module.py:lineno`` of the first frame outside this file."""
    own = __file__
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == own:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - defensive
        return "<unknown>"
    path = frame.f_code.co_filename
    parts = path.replace(os.sep, "/").rsplit("/", 2)
    return f"{'/'.join(parts[-2:])}:{frame.f_lineno}"


@dataclass(frozen=True)
class RaceReport:
    """One read-across-yield / concurrent-write interleaving."""

    label: str
    key: str
    reader: str
    reader_site: str
    read_time: float
    writer: str
    writer_site: str
    write_time: float

    def describe(self) -> str:
        return (
            f"race on {self.label}[{self.key}]: {self.reader} read at "
            f"t={self.read_time:.6g} ({self.reader_site}), suspended at a "
            f"yield point, then {self.writer} wrote at "
            f"t={self.write_time:.6g} ({self.writer_site})"
        )


class SimTSan:
    """The detector: one per simulation, installed explicitly.

    Usage::

        tsan = SimTSan(sim).install()
        table = tracked(sim, {"owner": None}, label="demo.table")
        ...
        sim.run()
        tsan.assert_clean()
    """

    def __init__(self, sim: Any, trace: bool = True):
        self.sim = sim
        #: Flagged interleavings, in detection order.
        self.races: List[RaceReport] = []
        #: Emit span-linked diagnostics through ``sim.trace``.
        self.trace = trace
        #: Optional access observer ``fn(label, key, is_write)``: the
        #: model checker (repro.analysis.mcheck) collects per-step
        #: Shared-container footprints through it, which become the
        #: independence relation its schedule pruning is keyed on.
        #: Suspended accesses (:func:`untracked`) stay invisible.
        self.on_access: Optional[Any] = None
        self._suspended = 0

    # ------------------------------------------------------------------
    def install(self) -> "SimTSan":
        """Attach to the simulation and start observing every
        :class:`Shared` built on it, before or after this call."""
        if getattr(self.sim, "_simtsan", None) is not None:
            raise RuntimeError("a SimTSan detector is already installed")
        self.sim._simtsan = self
        _containers(self.sim).switch(_ObservedShared)
        return self

    def uninstall(self) -> None:
        """Detach: the simulation's containers go back to plain dicts."""
        if self.sim._simtsan is self:
            self.sim._simtsan = None
            _containers(self.sim).switch(Shared)

    @property
    def active(self) -> bool:
        return self._suspended == 0

    # ------------------------------------------------------------------
    # access recording (called by Shared)
    def on_read(self, shared: "Shared", key: Any) -> None:
        if self._suspended:
            return
        hook = self.on_access
        if hook is not None:
            hook(shared.label, key, False)
        task = self.sim.current_task
        if task is None:
            # Root-context code (setup, run_until predicates) never
            # yields mid-read; nothing to span a yield point with.
            return
        table = shared._tsan_reads.get(key)
        if table is None:
            table = shared._tsan_reads[key] = {}
        elif len(table) > _PRUNE_AT:
            for stale in [
                t for t, (clk, _, _) in table.items()
                if t.finished or t.clock != clk
            ]:
                del table[stale]
        table[task] = (task.clock, self.sim.now, _site())

    def on_write(self, shared: "Shared", key: Any) -> None:
        if self._suspended:
            return
        hook = self.on_access
        if hook is not None:
            hook(shared.label, key, True)
        writer = self.sim.current_task
        write_site = None
        keys = (key, _WHOLE) if key is not _WHOLE else tuple(shared._tsan_reads)
        for conflict_key in keys:
            table = shared._tsan_reads.get(conflict_key)
            if not table:
                continue
            drop = []
            for task, (clock, read_time, read_site) in table.items():
                if task is writer:
                    continue
                drop.append(task)
                if task.finished or task.clock != clock:
                    continue  # resumed since the read: out of scope
                if write_site is None:
                    write_site = _site()
                self._report(
                    shared,
                    conflict_key,
                    reader=task.name,
                    reader_site=read_site,
                    read_time=read_time,
                    writer=writer.name if writer is not None else "<main>",
                    writer_site=write_site,
                )
            for task in drop:
                del table[task]

    # ------------------------------------------------------------------
    def _report(
        self,
        shared: "Shared",
        key: Any,
        reader: str,
        reader_site: str,
        read_time: float,
        writer: str,
        writer_site: str,
    ) -> None:
        report = RaceReport(
            label=shared.label,
            key=repr(key) if key is not _WHOLE else _WHOLE,
            reader=reader,
            reader_site=reader_site,
            read_time=read_time,
            writer=writer,
            writer_site=writer_site,
            write_time=self.sim.now,
        )
        self.races.append(report)
        if self.trace:
            trace = self.sim.trace
            span = trace.begin(
                "simtsan.race",
                label=report.label,
                key=report.key,
                reader=report.reader,
                reader_site=report.reader_site,
                read_time=report.read_time,
                writer=report.writer,
                writer_site=report.writer_site,
            )
            trace.end(span)
            trace.add("simtsan.races")

    # ------------------------------------------------------------------
    def assert_clean(self) -> None:
        """Raise ``AssertionError`` listing every flagged race."""
        if self.races:
            raise AssertionError(
                "SimTSan flagged yield-point races:\n"
                + "\n".join(r.describe() for r in self.races)
            )


@contextmanager
def untracked(sim: Any) -> Iterator[None]:
    """Suspend access recording (meta-level observers, invariant
    checkers): reads/writes inside the block are invisible to SimTSan."""
    detector: Optional[SimTSan] = getattr(sim, "_simtsan", None)
    if detector is None:
        yield
        return
    detector._suspended += 1
    try:
        yield
    finally:
        detector._suspended -= 1


class _Containers:
    """The live :class:`Shared` containers built on one simulation, in
    registration order, held weakly: registering a container never
    keeps it alive."""

    def __init__(self) -> None:
        self._live: "weakref.WeakValueDictionary[int, Shared]" = weakref.WeakValueDictionary()
        self._registered = 0

    def add(self, shared: "Shared") -> None:
        self._live[self._registered] = shared
        self._registered += 1

    def switch(self, cls: type) -> None:
        """Make every live container an instance of ``cls``."""
        for shared in list(self._live.values()):
            shared.__class__ = cls


def _containers(sim: Any) -> _Containers:
    registry = getattr(sim, "_simtsan_containers", None)
    if registry is None:
        registry = sim._simtsan_containers = _Containers()
    return registry


class Shared(dict):
    """A dict SimTSan can observe.

    It overrides no dict method: with no detector installed (or
    ``sim=None``) an access is exactly the dict operation — cheap enough
    to leave adopted permanently on the SSG membership view, the
    provider's pipeline table, and the 2PC activation/prepared state.
    Observation is a class switch (see the module docstring).
    """

    __slots__ = ("_sim", "label", "_tsan_reads", "__weakref__")

    def __init__(
        self,
        data: Optional[Mapping] = None,
        *,
        sim: Any = None,
        label: str = "shared",
    ):
        super().__init__(data if data is not None else {})
        self._sim = sim
        self.label = label
        #: key -> {task: (task clock, sim time, source site)}
        self._tsan_reads: Dict[Any, Dict[Any, Tuple[int, float, str]]] = {}
        if sim is not None:
            _containers(sim).add(self)
            if sim._simtsan is not None:
                self.__class__ = _ObservedShared


class _ObservedShared(Shared):
    """A :class:`Shared` while a detector is installed on its
    simulation: each access reports to the detector, then runs."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # reads
    def __getitem__(self, key):
        self._sim._simtsan.on_read(self, key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._sim._simtsan.on_read(self, key)
        return super().get(key, default)

    def __contains__(self, key):
        self._sim._simtsan.on_read(self, key)
        return super().__contains__(key)

    def __iter__(self):
        self._sim._simtsan.on_read(self, _WHOLE)
        return super().__iter__()

    def __len__(self):
        self._sim._simtsan.on_read(self, _WHOLE)
        return super().__len__()

    def keys(self):
        self._sim._simtsan.on_read(self, _WHOLE)
        return super().keys()

    def values(self):
        self._sim._simtsan.on_read(self, _WHOLE)
        return super().values()

    def items(self):
        self._sim._simtsan.on_read(self, _WHOLE)
        return super().items()

    # ------------------------------------------------------------------
    # writes
    def __setitem__(self, key, value):
        self._sim._simtsan.on_write(self, key)
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._sim._simtsan.on_write(self, key)
        super().__delitem__(key)

    def pop(self, key, *default):
        self._sim._simtsan.on_write(self, key)
        return super().pop(key, *default)

    def setdefault(self, key, default=None):
        det = self._sim._simtsan
        # A plain read when present, a write when absent.
        if super().__contains__(key):
            det.on_read(self, key)
        else:
            det.on_write(self, key)
        return super().setdefault(key, default)

    def update(self, *args, **kwargs):
        self._sim._simtsan.on_write(self, _WHOLE)
        super().update(*args, **kwargs)

    def clear(self):
        self._sim._simtsan.on_write(self, _WHOLE)
        super().clear()

    def popitem(self):
        self._sim._simtsan.on_write(self, _WHOLE)
        return super().popitem()


def tracked(sim: Any, data: Optional[Mapping] = None, label: str = "shared") -> Shared:
    """Wrap ``data`` (a mapping) for SimTSan observation."""
    if data is not None and not isinstance(data, Mapping):
        raise TypeError(
            f"tracked() supports mappings, not {type(data).__name__}"
        )
    return Shared(data, sim=sim, label=label)
