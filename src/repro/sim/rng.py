"""Named deterministic random streams.

Every stochastic element of the simulation (gossip jitter, srun launch
latency, workload noise) draws from its own named stream so that adding
a new consumer of randomness never perturbs existing ones — runs stay
reproducible as the code evolves. :func:`splitmix64` is the
stateless mixer for draws that must be a pure function of their
inputs (load traces, the model checker's random walks).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["MASK64", "RngRegistry", "splitmix64"]

MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """A 64-bit bijective mixer (Steele et al.): unique inputs map to
    unique outputs."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


class RngRegistry:
    """Factory of per-name :class:`numpy.random.Generator` streams.

    Stream seeds derive from ``(root_seed, name)`` via SHA-256, so they
    are stable across Python processes and platform hash randomization.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The stream for ``name`` (created on first use)."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(child_seed)
            self._streams[name] = gen
        return gen
