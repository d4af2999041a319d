"""The wire-size table: payloads whose ``payload_nbytes`` is pinned.

``tests/golden/wire_sizes.json`` was recorded with this script at the
last commit whose :func:`repro.na.payload_nbytes` priced ``Address`` and
ssg ``Update`` records by *pickling* them (PR 16's tree), so the declared
sizes that replaced the pickle must reproduce every row — a simulated
byte is a simulated second, and every pinned digest rides on them. The
``composite_image`` group alone was re-recorded when frames came to be
priced as IceT's sparse image (``tests/oracles/sparse_image.py`` is that
group's reference).

``groups()`` builds the payloads, in a fixed order, from nothing but
public constructors; the golden file maps each group name to the list of
sizes in that order. Inside the recorded ranges (URIs of 1-255 encoded
bytes, incarnations 0-255) the declared formula and pickle agree exactly;
outside them the formula is the contract (see ``repro.na.address`` and
``repro.ssg.view``) and no row is recorded.

Re-record (only against a tree whose sizes are known good)::

    PYTHONPATH=src python tests/oracles/wire_sizes.py
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict, namedtuple
from typing import Any, Dict, List

import numpy as np

from repro.na import Address, MemoryHandle, VirtualPayload, payload_nbytes
from repro.ssg.view import Status, Update
from repro.vtk.render.image import CompositeImage

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(__file__)), "golden", "wire_sizes.json")

#: Member URIs of the ``Update`` rows: minimal, canonical, long, non-ASCII.
UPDATE_URIS = (
    "x",
    "na+sim://nid00003/colza-7",
    "na+sim://" + "n" * 180 + "/server",
    "na+sim://nœud-07/colza-é",
)

_Pair = namedtuple("_Pair", "left right")


def _addr(i: int) -> Address:
    return Address.make(f"nid{i:05d}", f"colza-{i}")


def _updates(n: int) -> List[Update]:
    statuses = list(Status)
    return [Update(statuses[i % 4], _addr(i), i) for i in range(n)]


def groups() -> Dict[str, List[Any]]:
    """Group name -> payloads, both in recording order."""
    out: Dict[str, List[Any]] = OrderedDict()
    out["address.ascii_len_1_255"] = [Address("a" * n) for n in range(1, 256)]
    out["address.canonical"] = [_addr(i) for i in (0, 7, 42, 99999)] + [
        Address.make("nid00001", "client-3"), Address.make("login", "admin"),
    ]
    # Two- and three-byte code points: the size follows the encoded length.
    out["address.non_ascii"] = [Address("é" * n) for n in (1, 2, 50, 127)] + [
        Address("na+sim://nœud/緑-" + "x" * n) for n in (0, 10, 200)
    ]
    for status in Status:
        for u, uri in enumerate(UPDATE_URIS):
            out[f"update.{status.value}.uri{u}.inc_0_255"] = [
                Update(status, Address(uri), inc) for inc in range(256)
            ]

    a, b, c = _addr(1), _addr(2), _addr(3)
    ups = _updates(6)
    # SWIM: what ssg.agent puts on the wire (inputs) and gets back (replies).
    out["ssg.ping_input"] = [(a, []), (a, ups[:1]), (a, ups[:3]), (b, ups)]
    out["ssg.ping_reply"] = [[], ups[:1], ups[:4], ups]
    out["ssg.ping_req_input"] = [(a, b, []), (a, c, ups[:2]), (c, b, ups)]
    out["ssg.ping_req_reply"] = ["ack", "nack"]
    out["ssg.join"] = [a, _updates(1), _updates(17)]
    # 2PC activate (core.client / core.provider).
    view = [_addr(i) for i in range(5)]
    out["core.activate_prepare_input"] = [
        {"pipeline": "render", "iteration": 3, "view": view},
        {"pipeline": "alpha/render", "iteration": 1024, "view": view[:1]},
        {"pipeline": "p", "iteration": 0, "view": []},
    ]
    out["core.activate_prepare_reply"] = [
        {"vote": "yes"},
        {"vote": "no", "reason": "view-mismatch", "view": view},
        {"vote": "no", "reason": "unreachable", "dead": a},
    ]
    out["core.activate_commit_input"] = [
        {"pipeline": "render", "iteration": 3, "recover": False, "expected": []},
        {"pipeline": "render", "iteration": 4, "recover": True, "expected": [0, 1, 2, 5]},
    ]
    # (name, input, reply_to, reply_tag, trace_parent): an RpcRequest's fields.
    out["rpc_request_shaped"] = [
        ("ssg/ping", (a, ups[:2]), b, "reply-colza-1-17", 4211),
        ("colza/stage", {"block": 3, "handle": None}, c, "reply-client-0-0", None),
        ("colza/execute", None, a, "reply-é", 0),
    ]
    out["containers"] = [
        [], (), set(), {}, [[]], [(), []], [None, None],
        [1, 2.5, "three", b"four"], (a, (b, (c, ()))), {3, 1, 2},
        {"k": [1, 2, {"n": (True, None)}], 7: "seven", a: b},
        [[a, b], [c]], {"arrays": [np.zeros(3), np.ones((2, 2), np.float32)]},
        _Pair(a, 5), OrderedDict(x=1, y=[2, 3]), [[[[[1]]]]],
    ]
    out["str"] = ["", "a", "ascii text", "é", "nœud", "緑の", "😀", "x" * 1000, "é" * 300]
    out["scalars"] = [
        True, False, 0, 1, -1, 255, 256, 2 ** 31, 2 ** 63, 2 ** 200, -(2 ** 70),
        0.0, -1.5, 1e300, float("inf"), 1j, complex(2.5, -3.5),
    ]
    raw = bytes(range(256)) * 3
    out["buffers"] = [
        b"", b"x", raw, bytearray(), bytearray(raw[:100]), memoryview(raw),
        memoryview(raw)[10:50], memoryview(np.arange(12, dtype=np.int32)),
    ]
    grid = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    out["numpy"] = [
        np.zeros(0), np.zeros(1), grid, grid[:, ::2], grid.T, grid.astype(np.float32),
        np.zeros((3, 0, 5)), np.array(7), np.float64(1.0), np.int32(3), np.bool_(True),
        np.zeros(5, dtype=[("a", "i4"), ("b", "f8")]), np.array(["ab", "c"]),
    ]
    out["virtual"] = [
        VirtualPayload(()), VirtualPayload((0,)), VirtualPayload((8192,)),
        VirtualPayload((128, 128, 126), "int32"), VirtualPayload((3, 5), "uint8"),
        [VirtualPayload((4,)), VirtualPayload((4,), "float32")],
    ]
    image = CompositeImage.blank(7, 5, brick_depth=2.0)
    partly = CompositeImage.blank(7, 5)
    partly.depth[1:3, 2:6] = 1.5  # two runs of four pixels
    ends = CompositeImage.blank(7, 5)
    ends.depth[0, 0] = ends.depth[-1, -1] = 0.5
    empty = CompositeImage.empty(7, 5)
    out["composite_image"] = [
        image, image.rows(1, 4), image.rows(2, 2), CompositeImage.blank(256, 256),
        (0, 3, image.rows(0, 3)), [None, (0, 5, image)],
        partly, partly.rows(2, 5), empty, empty.rows(1, 4), ends,
    ]
    handle = MemoryHandle.expose(a, grid)
    out["memory_handle"] = [
        handle, MemoryHandle.expose(a, grid.reshape(-1)[1:9]),
        MemoryHandle.expose(a, grid.reshape(-1).view(np.uint8)[3:8]),
        MemoryHandle.expose(b, VirtualPayload((1 << 20,), "uint8")),
        MemoryHandle.expose(c, [grid, grid]), MemoryHandle.expose(a, None),
        {"block": 9, "handle": handle},
    ]
    out["none"] = [None, [None], {"k": None}]
    # Objects no rule knows: priced by the (counted) pickle fallback.
    out["fallback"] = [range(3, 17), frozenset({1, 2, 3}), slice(1, 9, 2)]
    return out


def sizes() -> Dict[str, List[int]]:
    return {name: [payload_nbytes(p) for p in payloads] for name, payloads in groups().items()}


def main() -> None:
    table = sizes()
    with open(GOLDEN, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(
            f"  {json.dumps(name)}: {json.dumps(values, separators=(',', ':'))}"
            for name, values in table.items()
        ))
        fh.write("\n}\n")
    print(f"{sum(map(len, table.values()))} rows in {len(table)} groups -> {GOLDEN}")


if __name__ == "__main__":
    main()
