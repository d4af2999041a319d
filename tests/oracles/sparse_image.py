"""IceT's sparse image, encoded and decoded for real: the reference that
``CompositeImage.nbytes`` is held to.

IceT ships a composited fragment as run-length-encoded *active* pixels,
and ``CompositeImage.nbytes`` (what ``payload_nbytes`` charges the
fabric) declares the size of that encoding without building it. This
module builds it, so a test can require the declared size to be
``len(encode(image))`` and ``decode(encode(image))`` to give the frame
back bit for bit. Layout, little-endian ``uint32`` words (IceT's
``IceTUInt``) and ``float32`` values:

- a header of seven words: magic number, colour format, depth format,
  width, height, pixel count, size of the whole buffer in bytes;
- then, in row-major pixel order, run pairs: the number of inactive
  pixels, the number of active ones, and those active pixels — RGBA and
  depth, 20 bytes each. At least one pair is written, so a frame
  without pixels is ``(0, 0)``.

A pixel is active when its depth is finite. An inactive pixel is not
sent and decodes as the background, ``(0, 0, 0, 0)`` / ``inf``: the
encoding is lossless exactly for frames whose inactive pixels are
background. Written for clarity — one pass over the pixels in Python —
not for speed.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

import numpy as np

from repro.vtk.render.image import CompositeImage

__all__ = ["decode", "encode"]

SPARSE_IMAGE_MAGIC = 0x004D5100  # IceT's ICET_SPARSE_IMAGE_MAGIC_NUM
COLOR_RGBA_FLOAT = 0xC002  # ICET_IMAGE_COLOR_RGBA_FLOAT
DEPTH_FLOAT = 0xD001  # ICET_IMAGE_DEPTH_FLOAT
_HEADER = struct.Struct("<7I")
_RUN_PAIR = struct.Struct("<2I")


def _run_pairs(active: Sequence[bool]) -> List[Tuple[int, int]]:
    """(inactive, active) counts covering ``active`` in order."""
    pairs, i, n = [], 0, len(active)
    while True:
        start = i
        while i < n and not active[i]:
            i += 1
        inactive, start = i - start, i
        while i < n and active[i]:
            i += 1
        pairs.append((inactive, i - start))
        if i == n:
            return pairs


def encode(image: CompositeImage) -> bytes:
    height, width = image.shape
    depth = np.ascontiguousarray(image.depth, dtype="<f4").reshape(-1)
    rgba = np.ascontiguousarray(image.rgba, dtype="<f4").reshape(-1, 4)
    pixels = np.concatenate([rgba, depth[:, None]], axis=1)  # 20 bytes a pixel
    body, at = [], 0
    for inactive, active in _run_pairs(np.isfinite(depth).tolist()):
        at += inactive
        body.append(_RUN_PAIR.pack(inactive, active) + pixels[at : at + active].tobytes())
        at += active
    size = _HEADER.size + sum(map(len, body))
    header = _HEADER.pack(
        SPARSE_IMAGE_MAGIC, COLOR_RGBA_FLOAT, DEPTH_FLOAT, width, height, width * height, size
    )
    return header + b"".join(body)


def decode(data: bytes) -> CompositeImage:
    magic, color, depth_format, width, height, count, size = _HEADER.unpack_from(data)
    if (magic, color, depth_format, size) != (SPARSE_IMAGE_MAGIC, COLOR_RGBA_FLOAT, DEPTH_FLOAT, len(data)):
        raise ValueError("not an RGBA-float, depth-float sparse image of this length")
    image = CompositeImage.blank(width, height)
    rgba, depth = image.rgba.reshape(-1, 4), image.depth.reshape(-1)
    at, offset = 0, _HEADER.size
    while offset < len(data):
        inactive, active = _RUN_PAIR.unpack_from(data, offset)
        offset += _RUN_PAIR.size
        at += inactive
        pixels = np.frombuffer(data, "<f4", 5 * active, offset).reshape(active, 5)
        rgba[at : at + active] = pixels[:, :4]
        depth[at : at + active] = pixels[:, 4]
        offset += pixels.nbytes
        at += active
    if at != count:
        raise ValueError(f"runs cover {at} pixels of {count}")
    return image
