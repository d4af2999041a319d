"""Failure-aware actuation helpers: capped jittered backoff.

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
"""

from __future__ import annotations

__all__ = ["backoff_delay"]


def backoff_delay(sim, stream: str, attempt: int, base: float, cap: float) -> float:
    """Jittered capped exponential delay for retry ``attempt`` (0-based)."""
    rng = sim.rng.stream(stream)
    return min(cap, base * (2.0 ** attempt)) * float(rng.uniform(0.5, 1.0))

