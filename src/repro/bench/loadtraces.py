"""Deterministic load traces for driving the SLO autoscaler.

A *trace* is a list of per-iteration load multipliers (1.0 = the
workload's baseline block size). Three shapes, mirroring what an in
situ pipeline actually sees:

- :func:`bursty` — quiet base load with quasi-periodic bursts that
  *ramp* over a couple of iterations before holding. The ramp is the
  point: a predictive controller extrapolates it and resizes before
  the deadline miss, a reactive band only reacts one miss later.
- :func:`diurnal` — a slow sinusoid (the simulation alternating
  between compute-heavy and output-heavy phases), testing smooth
  tracking and amortized shrinks on the downslope.
- :func:`adversarial` — single-iteration spikes that immediately
  vanish, plus step edges timed near typical cooldown lengths: bait
  for a thrashing controller. A good controller mostly *holds* here;
  the bench gates its resize count, not its miss count.

Every generator is a pure function of ``(seed, parameters)`` built on
the splitmix64 mixer (:mod:`repro.sim.rng`) — no RNG state, no numpy
stream, so a trace can be regenerated anywhere (tests, benches,
examples) and is byte-stable across platforms.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from repro.sim.rng import MASK64, splitmix64

__all__ = ["TRACES", "adversarial", "bursty", "diurnal", "trace"]

_GOLDEN = 0x9E3779B97F4A7C15


def _uniform(seed: int, index: int) -> float:
    """Deterministic uniform in [0, 1) from ``(seed, index)``."""
    mixed = splitmix64((seed * _GOLDEN + index * 0xBF58476D1CE4E5B9) & MASK64)
    return mixed / float(1 << 64)


def bursty(
    iterations: int,
    seed: int = 0,
    base: float = 1.0,
    burst: float = 6.0,
    ramp: int = 2,
    hold: int = 3,
    min_gap: int = 2,
    max_gap: int = 6,
) -> List[float]:
    """Quiet base load with ramping bursts at seeded intervals."""
    loads: List[float] = []
    while len(loads) < iterations:
        gap = min_gap + int(_uniform(seed, len(loads)) * (max_gap - min_gap + 1))
        loads.extend([base] * gap)
        for r in range(1, ramp + 1):
            loads.append(base + (burst - base) * r / ramp)
        loads.extend([burst] * hold)
    return loads[:iterations]


def diurnal(
    iterations: int,
    seed: int = 0,
    base: float = 1.0,
    peak: float = 4.0,
    period: int = 12,
    jitter: float = 0.1,
) -> List[float]:
    """A slow sinusoid between ``base`` and ``peak`` with seeded jitter."""
    loads = []
    for i in range(iterations):
        phase = 0.5 - 0.5 * math.cos(2.0 * math.pi * i / period)
        wobble = 1.0 + jitter * (2.0 * _uniform(seed, i) - 1.0)
        loads.append((base + (peak - base) * phase) * wobble)
    return loads


def adversarial(
    iterations: int,
    seed: int = 0,
    base: float = 1.0,
    spike: float = 8.0,
    step: float = 3.0,
) -> List[float]:
    """Thrash bait: one-iteration spikes that vanish immediately, and
    short step edges spaced like a typical cooldown window."""
    loads = []
    for i in range(iterations):
        slot = i % 7
        if slot == 2:
            loads.append(spike)  # gone next iteration
        elif slot in (4, 5) and _uniform(seed, i) < 0.7:
            loads.append(step)  # two-iteration shelf, then back down
        else:
            loads.append(base)
    return loads


TRACES: Dict[str, Callable[..., List[float]]] = {
    "bursty": bursty,
    "diurnal": diurnal,
    "adversarial": adversarial,
}


def trace(name: str, iterations: int, seed: int = 0, **kwargs) -> List[float]:
    """Generate the named trace (``bursty``/``diurnal``/``adversarial``)."""
    return TRACES[name](iterations, seed=seed, **kwargs)
