"""Transport cost models calibrated against the paper's measurements.

Table I of the paper reports the time for 1000 send/recv operations on
Cori (Aries network) for four libraries; we read it as a per-message
one-way latency curve and interpolate piecewise-linearly in
``log2(size)`` between the measured anchors. Beyond the last anchor we
extrapolate with the bandwidth implied by the final segment, which is
the physically sensible large-message regime.

Two calibration regimes coexist (see DESIGN.md §5):

- **MoNA / NA are white boxes** — we implement their collectives, so
  only their *p2p* model is calibrated; collective times emerge from
  the tree algorithms in :mod:`repro.mona`.
- **Cray-mpich / OpenMPI are black boxes** — the paper measures them as
  opaque vendor libraries, so their collectives are calibrated directly
  from Table II (reduce at 512 processes) and scaled by tree depth for
  other process counts. :data:`REDUCE_CALIBRATION_512` holds those
  anchors; :mod:`repro.mpi` consumes them.

All anchor values are microseconds per operation, converted to seconds
here. Intra-node traffic uses a shared-memory profile (footnote 12 of
the paper credits MoNA's shmem path for its small-scale wins, so MoNA's
shmem profile is slightly better than the MPI ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "CostModel",
    "P2P_CALIBRATION",
    "REDUCE_CALIBRATION_512",
    "get_cost_model",
    "interp_log_size",
]

_US = 1e-6  # microsecond, in seconds
_P2P_MEMO_LIMIT = 4096  # distinct message sizes memoised per CostModel

# --- Table I anchors: (message bytes, per-op time in µs), internode. ----
P2P_CALIBRATION: Dict[str, List[Tuple[int, float]]] = {
    "craympich": [
        (8, 1.163),
        (128, 1.215),
        (2048, 1.709),
        (16384, 5.247),
        (32768, 6.773),
        (524288, 56.371),
    ],
    "openmpi": [
        (8, 1.527),
        (128, 1.608),
        (2048, 2.12),
        (16384, 61.451),  # rendezvous-protocol cliff the paper highlights
        (32768, 59.279),
        (524288, 109.472),
    ],
    "mona": [
        (8, 1.924),
        (128, 1.985),
        (2048, 2.714),
        (16384, 14.087),
        (32768, 15.305),
        (524288, 72.69),
    ],
    # Raw NA was only measured for small messages (Table I shows "-"
    # above 2 KiB). Larger sizes inherit MoNA's curve plus the
    # per-operation allocation overhead MoNA's request/buffer caching
    # removes (the paper's stated reason MoNA beats NA).
    "na": [
        (8, 2.103),
        (128, 2.122),
        (2048, 2.766),
        (16384, 14.087 + 0.35),
        (32768, 15.305 + 0.35),
        (524288, 72.69 + 0.35),
    ],
}

# --- Table II anchors: 512-process bxor reduce, per-op time in µs. ------
REDUCE_CALIBRATION_512: Dict[str, List[Tuple[int, float]]] = {
    "craympich": [
        (8, 93.7),
        (128, 90.7),
        (2048, 92.3),
        (16384, 79.2),
        (32768, 122.8),
    ],
    "openmpi": [
        (8, 204.8),
        (128, 229.9),
        (2048, 816.3),
        (16384, 54253.9),
        (32768, 219104.5),
    ],
}

# Shared-memory (intra-node) profiles: (latency µs, bandwidth GB/s).
_SHMEM_PROFILES: Dict[str, Tuple[float, float]] = {
    "craympich": (0.60, 12.0),
    "openmpi": (0.70, 10.0),
    "mona": (0.50, 15.0),  # footnote 12: MoNA's shmem path is strong
    "na": (0.85, 15.0),
}


def interp_log_size(anchors: Sequence[Tuple[int, float]], nbytes: int) -> float:
    """Piecewise-linear interpolation in log2(size) over ``anchors``.

    Below the first anchor: constant (latency floor). Beyond the last:
    linear in bytes with the bandwidth implied by the last segment.
    Returns microseconds.
    """
    if nbytes <= anchors[0][0]:
        return anchors[0][1]
    last_size, last_t = anchors[-1]
    if nbytes >= last_size:
        prev_size, prev_t = anchors[-2]
        bw_bytes_per_us = (last_size - prev_size) / max(last_t - prev_t, 1e-9)
        return last_t + (nbytes - last_size) / bw_bytes_per_us
    x = math.log2(nbytes)
    for (s0, t0), (s1, t1) in zip(anchors, anchors[1:]):
        if nbytes <= s1:
            x0, x1 = math.log2(s0), math.log2(s1)
            frac = (x - x0) / (x1 - x0)
            return t0 + frac * (t1 - t0)
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass(frozen=True)
class CostModel:
    """Per-library message cost model.

    Parameters
    ----------
    name:
        Library name (``craympich`` / ``openmpi`` / ``mona`` / ``na``).
    p2p_anchors:
        Internode per-message (bytes, µs) calibration points.
    shmem_latency_us / shmem_bandwidth_gbps:
        Intra-node profile.
    rdma_setup_us / rdma_bandwidth_gbps:
        Bulk-transfer (RDMA get/put) profile used by Mercury bulk and
        the Colza ``stage`` pull path.
    hop_overhead_us:
        Per-hop software overhead charged by *our* collective
        implementations on this transport (progress-loop dispatch,
        request setup). Calibrated so MoNA's emergent Table II values
        land near the paper's (the ``table2.mona`` row of
        tests/test_fidelity.py).
    """

    name: str
    p2p_anchors: Tuple[Tuple[int, float], ...]
    shmem_latency_us: float
    shmem_bandwidth_gbps: float
    rdma_setup_us: float = 2.0
    rdma_bandwidth_gbps: float = 8.5
    hop_overhead_us: float = 10.0
    #: Internode ``nbytes -> seconds`` memo of :meth:`p2p_time`: control
    #: traffic repeats a handful of sizes (an RPC header, a ping, a 2PC
    #: vote) thousands of times. Stops growing at _P2P_MEMO_LIMIT sizes.
    _p2p_memo: Dict[int, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def p2p_time(self, nbytes: int, same_node: bool = False) -> float:
        """One-way message time in **seconds**."""
        if nbytes < 0:
            raise ValueError("negative message size")
        if same_node:
            return (
                self.shmem_latency_us * _US
                + nbytes / (self.shmem_bandwidth_gbps * 1e9)
            )
        memo = self._p2p_memo
        if nbytes in memo:
            return memo[nbytes]
        seconds = interp_log_size(self.p2p_anchors, max(nbytes, 1)) * _US
        if len(memo) < _P2P_MEMO_LIMIT:
            memo[nbytes] = seconds
        return seconds

    def rdma_time(self, nbytes: int, same_node: bool = False) -> float:
        """Bulk get/put time in **seconds** (registration + stream)."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if same_node:
            # Same-node bulk = memcpy through shmem.
            return self.shmem_latency_us * _US + nbytes / (
                self.shmem_bandwidth_gbps * 1e9
            )
        return self.rdma_setup_us * _US + nbytes / (self.rdma_bandwidth_gbps * 1e9)

    def hop_overhead(self) -> float:
        """Per-hop software overhead in **seconds**."""
        return self.hop_overhead_us * _US


_MODELS: Dict[str, CostModel] = {}


def get_cost_model(name: str) -> CostModel:
    """The calibrated cost model for a library (cached singleton)."""
    model = _MODELS.get(name)
    if model is None:
        try:
            anchors = tuple(P2P_CALIBRATION[name])
        except KeyError:
            raise KeyError(
                f"unknown transport {name!r}; known: {sorted(P2P_CALIBRATION)}"
            ) from None
        lat, bw = _SHMEM_PROFILES[name]
        # 12 µs/hop lands MoNA's emergent 512-process bxor reduce within
        # ~25% of every Table II anchor (row ``table2.mona``, tests/test_fidelity.py).
        hop = 12.0 if name in ("mona", "na") else 10.0
        model = CostModel(
            name=name,
            p2p_anchors=anchors,
            shmem_latency_us=lat,
            shmem_bandwidth_gbps=bw,
            hop_overhead_us=hop,
        )
        _MODELS[name] = model
    return model
