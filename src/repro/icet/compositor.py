"""Compositing strategies: binary swap and reduce-to-root.

Both operate on :class:`~repro.vtk.render.image.CompositeImage` and a
pixel-combine operator:

- ``"zbuffer"`` — nearest fragment wins (opaque surfaces);
- ``"over"``   — front-to-back alpha blending, ordered by each image's
  ``brick_depth`` (translucent volumes over disjoint bricks).

Binary swap follows the standard algorithm: non-power-of-two ranks are
*folded* into the power-of-two core first; each round splits the owned
row range in half and exchanges the far half with the partner; finally
the root gathers the P fragments. Per-rank traffic is O(pixels), the
property that makes image compositing the only communication-heavy
stage of parallel rendering (paper §III-C2).

Host cost follows active pixels, as in IceT: ranks with nothing to draw
contribute :meth:`CompositeImage.empty` frames (no storage), and a
z-buffer combine in which the incoming fragment wins no pixel allocates
nothing (:func:`~repro.vtk.render.image.combine_zbuffer`). The *wire*
is still priced by frame size (``CompositeImage.nbytes``), not by
active pixels.
"""

from __future__ import annotations

import functools
from typing import Callable, Generator, List, Optional, Tuple

import numpy as np

from repro.icet.communicator import IceTCommunicator
from repro.vtk.render.image import CompositeImage, combine_over, combine_zbuffer

__all__ = ["binary_swap", "reduce_to_root"]

Combine = Callable[[CompositeImage, CompositeImage], CompositeImage]


def _traced(strategy: str):
    """Wrap a compositing strategy in an ``icet.<strategy>`` span."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(icomm: IceTCommunicator, *args, **kwargs) -> Generator:
            sim = icomm.sim
            span = sim.trace.begin(
                f"icet.{strategy}", kind=icomm.kind, rank=icomm.rank, size=icomm.size
            )
            try:
                result = yield from fn(icomm, *args, **kwargs)
            except BaseException as err:
                sim.trace.end(span, error=type(err).__name__)
                raise
            sim.trace.end(span)
            sim.metrics.scope("icet").counter("composites").inc()
            return result

        return wrapper

    return decorate


def _combiner(op: str) -> Combine:
    if op == "zbuffer":
        return combine_zbuffer
    if op == "over":

        def ordered_over(a: CompositeImage, b: CompositeImage) -> CompositeImage:
            front, back = (a, b) if a.brick_depth <= b.brick_depth else (b, a)
            return combine_over(front, back)

        return ordered_over
    raise ValueError(f"unknown composite op {op!r} (zbuffer|over)")


@_traced("reduce_to_root")
def reduce_to_root(
    icomm: IceTCommunicator,
    image: CompositeImage,
    op: str = "zbuffer",
    root: int = 0,
) -> Generator:
    """Gather whole images at the root and fold them together.

    Simple and bandwidth-hungry (O(P x pixels) at the root) — the
    baseline IceT strategy; binary swap is the scalable one.
    """
    combine = _combiner(op)
    images: Optional[List[CompositeImage]] = yield from icomm.gather(image, root=root)
    if icomm.rank != root:
        return None
    assert images is not None
    ordered = sorted(images, key=lambda im: im.brick_depth)
    result = ordered[0]
    for piece in ordered[1:]:
        result = combine(result, piece)
    return result


@_traced("binary_swap")
def binary_swap(
    icomm: IceTCommunicator,
    image: CompositeImage,
    op: str = "zbuffer",
    root: int = 0,
) -> Generator:
    """Binary-swap compositing; the full image materializes at ``root``.

    Ordered ('over') compositing requires every pairwise combine to
    merge *depth-contiguous* groups, so ranks are first renumbered into
    depth order (IceT's composite-order mechanism: one small allgather
    of brick depths), non-power-of-two extras are folded by pairing
    *adjacent* virtual ranks, and swap rounds pair ``v ^ (1 << k)`` so
    accumulated groups are always aligned contiguous blocks.
    """
    combine = _combiner(op)
    size, rank = icomm.size, icomm.rank
    if size == 1:
        return image
    height, width = image.shape

    # --- composite order: virtual ranks sorted front-to-back ------------
    if op == "over":
        depths = yield from _allgather_depths(icomm, image.brick_depth)
        order = sorted(range(size), key=lambda r: (depths[r], r))
        vrank = order.index(rank)
    else:
        order = list(range(size))
        vrank = rank

    def actual(v: int) -> int:
        return order[v]

    # --- fold to a power of two by merging adjacent virtual pairs -------
    pow2 = 1
    while pow2 * 2 <= size:
        pow2 *= 2
    extra = size - pow2
    current = image
    if vrank < 2 * extra:  # flowcheck: disable=FC005 -- fold pairs are matched send/recv partners; both paths reach the same gather
        if vrank % 2 == 1:  # flowcheck: disable=FC005 -- odd fold ranks gather early at line 137, even ranks gather at line 183: one gather each, globally convergent
            yield from icomm.send(actual(vrank - 1), current, tag="icet-fold")
            fragments = yield from icomm.gather(None, root=root)
            if rank == root:
                return _assemble(fragments, width, height, image.brick_depth)
            return None
        other: CompositeImage = yield from icomm.recv(
            source=actual(vrank + 1), tag="icet-fold"
        )
        current = combine(current, other)
        swap_rank = vrank // 2
    else:
        swap_rank = vrank - extra

    def swap_to_actual(s: int) -> int:
        return actual(2 * s) if s < extra else actual(s + extra)

    # --- XOR swap rounds: groups stay aligned contiguous blocks ---------
    lo, hi = 0, height
    rounds = pow2.bit_length() - 1
    for k in range(rounds):
        partner = swap_to_actual(swap_rank ^ (1 << k))
        mid = lo + (hi - lo) // 2
        if (swap_rank >> k) & 1 == 0:
            keep_lo, keep_hi = lo, mid
            send_lo, send_hi = mid, hi
            mine_in_front = True
        else:
            keep_lo, keep_hi = mid, hi
            send_lo, send_hi = lo, mid
            mine_in_front = False
        # Both halves are views, and a combine that takes no pixel hands
        # back its first argument's buffers: what makes that safe is that
        # no frame is written after it is made — not ``current``, not a
        # combine result, not a received fragment. Only ``_assemble``
        # writes, into the frame it allocates.
        outgoing = current.rows(send_lo - lo, send_hi - lo)
        incoming: CompositeImage = yield from icomm.sendrecv(
            partner, outgoing, partner, tag=f"icet-swap-{k}"
        )
        kept = current.rows(keep_lo - lo, keep_hi - lo)
        if op == "over":
            # Contiguous blocks: the lower virtual block is in front.
            front, back = (kept, incoming) if mine_in_front else (incoming, kept)
            current = combine_over(front, back)
        else:
            current = combine(kept, incoming)
        lo, hi = keep_lo, keep_hi

    # --- gather fragments at root ----------------------------------------
    fragment = (lo, hi, current)
    fragments = yield from icomm.gather(fragment, root=root)
    if rank != root:
        return None
    return _assemble(fragments, width, height, image.brick_depth)


def _allgather_depths(icomm: IceTCommunicator, depth: float) -> Generator:
    """Allgather implemented as gather + fan-out sends (IceT only has
    the struct's primitives available)."""
    gathered = yield from icomm.gather(depth, root=0)
    if icomm.rank == 0:
        for dest in range(1, icomm.size):
            yield from icomm.send(dest, gathered, tag="icet-depths")
        return gathered
    return (yield from icomm.recv(source=0, tag="icet-depths"))


def _assemble(fragments, width: int, height: int, own_depth: float) -> CompositeImage:
    full = CompositeImage.blank(width, height)
    min_brick = own_depth
    for item in fragments:
        if item is None:
            continue
        flo, fhi, piece = item
        full.rgba[flo:fhi] = piece.rgba
        full.depth[flo:fhi] = piece.depth
        min_brick = min(min_brick, piece.brick_depth)
    full.brick_depth = min_brick
    return full
