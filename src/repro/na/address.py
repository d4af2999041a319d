"""Endpoint addresses.

An :class:`Address` is an opaque, immutable endpoint name, in the
spirit of Mercury's ``na+ofi://...`` strings. Addresses are hashable
and totally ordered so that membership lists can be sorted into a
canonical order — MoNA communicators rely on this to agree on ranks
without communication.

Everything an address is asked per message — its hash (every dict and
set the stack keys by address) and its wire size — is computed once, at
construction, from the URI's encoded bytes.

Wire size. An address *declares* its size through the ``nbytes``
attribute :func:`repro.na.payload.payload_nbytes` honours: the encoded
URI plus :data:`ADDRESS_FRAMING_BYTES` of framing (type tag, length
prefix, field name). The constant is what a serialised address record
cost when sizes were still measured by pickling one, so every simulated
byte count is unchanged — but it is now a number in this file, not a
function of the module's import path. For URIs longer than 255 encoded
bytes the formula stays linear (a pickle would have widened its length
prefix by 3 bytes); that range was never exercised and the formula is
the contract.
"""

from __future__ import annotations

import zlib
from functools import total_ordering

__all__ = ["ADDRESS_FRAMING_BYTES", "Address"]

#: Bytes an address occupies on the wire beyond its encoded URI.
ADDRESS_FRAMING_BYTES = 62


@total_ordering
class Address:
    """An immutable endpoint name, e.g. ``na+sim://nid00003/colza-7``."""

    __slots__ = ("uri", "nbytes", "_hash")

    def __init__(self, uri: str):
        if not uri:
            raise ValueError("empty address")
        encoded = uri.encode()
        object.__setattr__(self, "uri", uri)
        #: Declared wire size (see the module docstring).
        object.__setattr__(self, "nbytes", len(encoded) + ADDRESS_FRAMING_BYTES)
        # crc32, not hash(str): stable across processes (str hash is
        # PYTHONHASHSEED-salted), so set/dict iteration over addresses
        # orders identically in every run.
        object.__setattr__(self, "_hash", zlib.crc32(encoded))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Address is immutable")

    def __reduce__(self):
        # Rebuild through __init__: the default slot-state protocol
        # would setattr on an immutable object.
        return (type(self), (self.uri,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Address) and self.uri == other.uri

    def __lt__(self, other: "Address") -> bool:
        if not isinstance(other, Address):
            return NotImplemented
        return self.uri < other.uri

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.uri

    def __repr__(self) -> str:
        return f"Address({self.uri!r})"

    @classmethod
    def make(cls, node_name: str, endpoint_name: str) -> "Address":
        """Canonical URI for an endpoint on a node."""
        return cls(f"na+sim://{node_name}/{endpoint_name}")
