"""Payload helpers: size accounting, virtual payloads, RDMA memory handles.

The simulator moves payloads by reference (zero-copy, RDMA-style): a
sender must not mutate a buffer until the matching receive/pull has
completed, exactly as with real RDMA registration. Two payload kinds
flow through the stack:

- real data: NumPy arrays (or any object with ``nbytes``), used by the
  examples and tests so pipelines do genuine computation;
- :class:`VirtualPayload`: shape/dtype metadata only, used by the
  paper-scale benchmarks so a 2 GB domain does not need 2 GB of RAM —
  the DES charges transfer and compute time from the declared size.

The ``nbytes`` wire-size protocol. A simulated byte is a simulated
second, so the size of a message must be a property of its *content*,
never of how Python happens to serialise it. :func:`payload_nbytes`
therefore prices structurally:

- an object with an ``nbytes`` attribute **declares** its size — NumPy
  arrays and :class:`VirtualPayload` (their storage), ``CompositeImage``
  (IceT's sparse image of it: a 28-byte header, 8 bytes per run pair,
  20 per active pixel — not its storage),
  :class:`MemoryHandle` (the region it names), and the wire records
  :class:`~repro.na.address.Address` (encoded URI +
  ``ADDRESS_FRAMING_BYTES`` = 62) and ssg
  :class:`~repro.ssg.view.Update` (member address + status name +
  ``UPDATE_FRAMING_BYTES`` = 90);
- ``list`` / ``tuple`` / ``set`` cost their items plus
  :data:`ITEM_FRAMING_BYTES` each, ``dict`` its keys and values plus the
  same per entry; numbers cost :data:`SCALAR_BYTES`; ``str`` its UTF-8
  length; ``bytes``-likes their length; ``None`` nothing.

``tests/golden/wire_sizes.json`` pins every rule. Only an object none
of the rules knows — a user's pipeline-config instance, say — is still
priced by serialising it, and each such payload is counted in
:data:`FALLBACK_SIZED` so a hot path that starts hitting it shows up as
a number (steady-state iterations must read zero).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.na.address import Address

__all__ = [
    "FALLBACK_SIZED",
    "ITEM_FRAMING_BYTES",
    "MemoryHandle",
    "SCALAR_BYTES",
    "VirtualPayload",
    "payload_nbytes",
]

#: Framing per container item (and per dict entry), bytes.
ITEM_FRAMING_BYTES = 8
#: Wire size of an int / float / complex / bool.
SCALAR_BYTES = 8
#: Type name -> payloads of that type priced by the serialising fallback
#: since import (process-wide; read deltas).
FALLBACK_SIZED: "Counter[str]" = Counter()


@dataclass(frozen=True)
class VirtualPayload:
    """A stand-in for an array: carries shape/dtype, no storage.

    ``virtual`` payloads traverse the exact same code paths as real
    arrays (staging, RDMA, compositing input sizes) so benchmark
    timing exercises identical control flow.
    """

    shape: Tuple[int, ...]
    dtype: str = "float64"

    # Both sizes are read several times per block per iteration (expose,
    # wire size, cell count, span tag): ``math.prod`` is one C call where
    # ``np.prod`` builds an array, and exact where int64 would wrap.
    @property
    def nbytes(self) -> int:
        return int(math.prod(self.shape)) * np.dtype(self.dtype).itemsize

    @property
    def size(self) -> int:
        return int(math.prod(self.shape))


def payload_nbytes(payload: Any) -> int:
    """Wire size of a payload in bytes (the module docstring has the rules).

    Exact built-in types are dispatched on ``type(payload)`` first — they
    are what nearly every control message is made of and cannot carry an
    ``nbytes`` attribute; then a declared ``nbytes`` wins; subclasses and
    the rarer built-ins follow.
    """
    if payload is None:
        return 0
    kind = type(payload)
    if kind is list or kind is tuple or kind is set:
        total = 0
        for item in payload:
            total += payload_nbytes(item) + ITEM_FRAMING_BYTES
        return total
    if kind is dict:
        total = 0
        for key, value in payload.items():
            total += payload_nbytes(key) + payload_nbytes(value) + ITEM_FRAMING_BYTES
        return total
    if kind is str:
        return len(payload.encode())
    if kind is int or kind is float or kind is bool or kind is complex:
        return SCALAR_BYTES
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    # Subclasses (a namedtuple, an OrderedDict, an IntEnum) cost what
    # their built-in base does.
    if isinstance(payload, (list, tuple, set)):
        return payload_nbytes(list(payload))
    if isinstance(payload, dict):
        return payload_nbytes(dict(payload))
    if isinstance(payload, (int, float, complex)):
        return SCALAR_BYTES
    if isinstance(payload, str):
        return len(payload.encode())
    return _pickled_nbytes(payload)


def _pickled_nbytes(payload: Any) -> int:
    """The counted fallback: an object no sizing rule knows costs its
    pickled length (the simulator's stand-in for user serialisation)."""
    import pickle

    FALLBACK_SIZED[type(payload).__qualname__] += 1
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


@dataclass
class MemoryHandle:
    """An RDMA-exposed region of a process's memory.

    Created by the owner (``expose``), shipped inside RPC arguments (a
    handle is tiny on the wire), and consumed by the remote side via
    :meth:`repro.na.fabric.Fabric.rdma_pull` — the Colza ``stage`` data
    path.
    """

    owner: Address
    payload: Any
    nbytes: int

    @classmethod
    def expose(cls, owner: Address, payload: Any) -> "MemoryHandle":
        return cls(owner=owner, payload=payload, nbytes=payload_nbytes(payload))
