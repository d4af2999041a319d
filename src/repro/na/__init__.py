"""NA — the network abstraction layer (Mercury's messaging substrate).

Everything that crosses the simulated network goes through this
package: Mercury RPCs, MoNA collectives, and the MPI simulator all
register :class:`Endpoint` objects on one shared :class:`Fabric` and
exchange :class:`Message` objects whose transit time comes from a
per-library :class:`CostModel` calibrated against the paper's Table I.

Highlights:

- :class:`Address` — opaque, hashable endpoint names (sortable, so
  deterministic collectives can order members).
- :class:`Fabric` — delivery, tag/source matching, RDMA pull on
  registered memory, endpoint registration/deregistration (messages to
  dead endpoints are dropped; failure detection is the job of SWIM).
- :class:`CostModel` + :func:`get_cost_model` — piecewise-log-linear
  interpolation of measured per-message latencies for the four
  libraries the paper benchmarks (``craympich``, ``openmpi``, ``mona``,
  ``na``), with shared-memory profiles for intra-node traffic.
- :class:`MemoryHandle` / payload helpers — RDMA-exposable buffers,
  either real NumPy arrays or :class:`VirtualPayload` (shape/dtype
  only) for paper-scale benchmark runs.
"""

from repro.na.address import Address
from repro.na.costmodel import (
    CostModel,
    P2P_CALIBRATION,
    REDUCE_CALIBRATION_512,
    get_cost_model,
)
from repro.na.fabric import Endpoint, Fabric, Message, NAError
from repro.na.payload import MemoryHandle, VirtualPayload, payload_nbytes

__all__ = [
    "Address",
    "CostModel",
    "Endpoint",
    "Fabric",
    "MemoryHandle",
    "Message",
    "NAError",
    "P2P_CALIBRATION",
    "REDUCE_CALIBRATION_512",
    "VirtualPayload",
    "get_cost_model",
    "payload_nbytes",
]
