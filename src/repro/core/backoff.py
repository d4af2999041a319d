"""Failure-aware actuation helpers: capped jittered backoff + guarded spawns.

One backoff formula, shared by every retry loop in the tree (activate
retries, whole-iteration retries, autoscaler actuation): ``min(cap,
base * 2^k)`` scaled by a uniform draw in [0.5, 1.0) from a *named* RNG
stream. The stream name carries the retrying endpoint's identity, so
concurrent retriers de-synchronize instead of hammering the servers in
lock-step — yet every pause is a pure function of ``(root_seed, stream
name, draw index)`` and replays bit-identically under a pinned seed.
A retry that acts on new information needs no pause: activate draws a
delay only before re-proposing a view it has already tried, so a draw
is taken per pause, not per attempt.

:func:`guarded` exists because the kernel runs strict by default: an
exception escaping a spawned task tears down the whole simulation. An
actuation task (join a new daemon, deploy a pipeline, ask a victim to
leave) is *expected* to fail when chaos crashes its target mid-flight,
so the retry loops spawn ``guarded(gen)`` and branch on the returned
``("ok", result)`` / ``("err", exc)`` tuple instead of letting the
failure propagate through ``any_of`` into the kernel loop.
"""

from __future__ import annotations

from typing import Generator

__all__ = ["backoff_delay", "guarded"]


def backoff_delay(sim, stream: str, attempt: int, base: float, cap: float) -> float:
    """Jittered capped exponential delay for retry ``attempt`` (0-based)."""
    rng = sim.rng.stream(stream)
    return min(cap, base * (2.0 ** attempt)) * float(rng.uniform(0.5, 1.0))


def guarded(gen) -> Generator:
    """Run ``gen``, catching any exception into the return value.

    Returns ``("ok", result)`` or ``("err", exception)`` so a
    supervising retry loop can treat target death as a routine failed
    attempt rather than a kernel-level crash (strict mode re-raises
    unhandled task exceptions).
    """
    try:
        result = yield from gen
    except Exception as err:  # noqa: BLE001 — reported to the supervisor, not swallowed
        return ("err", err)
    return ("ok", result)
