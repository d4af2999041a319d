"""Pluggable same-timestamp tie-breaking strategies (DESIGN §15).

The kernel resolves events scheduled for the same simulated time by a
total order on integer keys. Historically that policy was baked into
``Simulation._schedule_at`` as two inline branches (FIFO sequence
numbers, or a splitmix64 permutation of them under ``perturb_seed``).
This module names the policy: a :class:`TieBreaker` is installed on a
simulation at construction and decides how same-timestamp ties
resolve. Three strategies exist:

- :class:`Fifo` — schedule order (the default). Bit-identical to the
  historical behaviour: every pinned determinism digest is preserved.
- :class:`Perturbed` — the splitmix64 bijection of schedule order used
  by the schedule fuzzer (``repro.analysis.fuzz``); equivalent to
  passing ``perturb_seed`` or using :func:`repro.sim.perturbed_ties`.
- :class:`Controlled` — defers every same-timestamp choice to an
  external exploration driver (``repro.analysis.mcheck``): whenever
  two or more live events share the earliest timestamp, the driver
  picks which fires next. Keys stay FIFO, so a driver that always
  answers ``0`` reproduces the FIFO schedule exactly, and a recorded
  list of choice indices replays any explored interleaving.

The hot path stays hot: strategies install plain attributes on the
simulation (``_perturb_salt``, ``_controller``) from its constructor,
so ``_schedule_at`` keeps its inline key computation and the event
loop pays nothing unless a controller is present. Only plain FIFO — no
salt, no controller — gets the kernel's run lane, which orders
same-instant wake-ups without drawing keys; ``Perturbed`` and
``Controlled`` need a key per call and keep every call on the heap.

The driver protocol ``Controlled`` defers to (duck-typed; the concrete
implementation is :class:`repro.analysis.mcheck.ScheduleController`):

- ``armed`` (bool attribute) — while false, the kernel pops FIFO and
  calls nothing; scenarios boot under FIFO and arm only around the
  racy window so exploration does not descend into bring-up ties.
- ``choose(sim, when, candidates) -> int`` — called when >= 2 live
  entries share the earliest timestamp; ``candidates`` is the list of
  queue entries in key (FIFO) order; returns the index to fire next.
- ``begin_step(sim, popped)`` — called right before every popped call
  executes (armed or not), so the driver can attribute the SimTSan
  access footprint of the step to the event that caused it.

Simulations built *inside* a scenario (which constructs its own
:class:`~repro.sim.kernel.Simulation`) pick a strategy up ambiently via
:class:`tie_strategy`, mirroring :func:`repro.sim.perturbed_ties`::

    with tie_strategy(Controlled(driver)):
        result = run_scenario("baseline_no_faults", seed=0)
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim import kernel as _kernel
from repro.sim.kernel import _MASK64, _splitmix64

__all__ = ["Controlled", "Fifo", "Perturbed", "TieBreaker", "tie_strategy"]


class TieBreaker:
    """Strategy deciding how same-timestamp events are ordered."""

    def install(self, sim: Any) -> None:
        raise NotImplementedError


class Fifo(TieBreaker):
    """Schedule order (the historical default): keys are the kernel's
    monotone sequence numbers, untouched."""

    def install(self, sim: Any) -> None:
        sim.perturb_seed = None
        sim._perturb_salt = None
        sim._controller = None


class Perturbed(TieBreaker):
    """Seeded splitmix64 permutation of schedule order — the fuzzer's
    knob, identical to ``Simulation(perturb_seed=seed)``."""

    def __init__(self, seed: int):
        self.seed = seed

    def install(self, sim: Any) -> None:
        sim.perturb_seed = self.seed
        sim._perturb_salt = _splitmix64(self.seed & _MASK64)
        sim._controller = None


class Controlled(TieBreaker):
    """Defer every same-timestamp choice to ``driver`` (see the module
    docstring for the protocol). Keys stay FIFO so choice index 0 at
    every decision point reproduces the FIFO schedule bit-identically."""

    def __init__(self, driver: Any):
        self.driver = driver

    def install(self, sim: Any) -> None:
        sim.perturb_seed = None
        sim._perturb_salt = None
        sim._controller = self.driver


class tie_strategy:
    """Context manager: simulations built inside the block install
    ``tiebreaker`` (unless one is passed explicitly). The exploration
    driver uses this to take over scenario code that constructs its own
    :class:`Simulation`, exactly like :func:`perturbed_ties` does for
    the fuzzer."""

    def __init__(self, tiebreaker: Optional[TieBreaker]):
        self.tiebreaker = tiebreaker
        self._outer: Optional[TieBreaker] = None

    def __enter__(self) -> "tie_strategy":
        self._outer = _kernel._default_tiebreaker
        _kernel._default_tiebreaker = self.tiebreaker
        return self

    def __exit__(self, *exc) -> None:
        _kernel._default_tiebreaker = self._outer
        return None
