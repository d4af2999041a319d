"""Binary swap as it was while it still copied both halves every round.

:func:`repro.icet.binary_swap` now hands the partner a *view* of the rows
it gives away and combines a view of the rows it keeps; this is the body
it had before (``.copy()`` on ``outgoing`` and ``kept``), moved not
edited. The production function promises a byte-identical composite
(``tests/test_icet.py``). The z-buffer combine is the oracle's own
(``tests/oracles/image_combine.py``: always allocates, looks at every
channel), so a change to the production kernel cannot carry this side
along; the helpers that did not change — the ordered ``over`` combiner,
the depth allgather, fragment assembly — are imported from the
production module rather than duplicated.
"""

from __future__ import annotations

from typing import Generator

from repro.icet.communicator import IceTCommunicator
from repro.icet.compositor import _allgather_depths, _assemble
from repro.icet.compositor import _combiner as _production_combiner
from repro.vtk.render.image import CompositeImage, combine_over
from tests.oracles.image_combine import combine_zbuffer_copying

__all__ = ["binary_swap_copying"]


def _combiner(op: str):
    return combine_zbuffer_copying if op == "zbuffer" else _production_combiner(op)


def binary_swap_copying(
    icomm: IceTCommunicator,
    image: CompositeImage,
    op: str = "zbuffer",
    root: int = 0,
) -> Generator:
    combine = _combiner(op)
    size, rank = icomm.size, icomm.rank
    if size == 1:
        return image
    height, width = image.shape

    if op == "over":
        depths = yield from _allgather_depths(icomm, image.brick_depth)
        order = sorted(range(size), key=lambda r: (depths[r], r))
        vrank = order.index(rank)
    else:
        order = list(range(size))
        vrank = rank

    def actual(v: int) -> int:
        return order[v]

    pow2 = 1
    while pow2 * 2 <= size:
        pow2 *= 2
    extra = size - pow2
    current = image
    if vrank < 2 * extra:
        if vrank % 2 == 1:
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
        outgoing = current.rows(send_lo - lo, send_hi - lo).copy()
        incoming: CompositeImage = yield from icomm.sendrecv(
            partner, outgoing, partner, tag=f"icet-swap-{k}"
        )
        kept = current.rows(keep_lo - lo, keep_hi - lo).copy()
        if op == "over":
            front, back = (kept, incoming) if mine_in_front else (incoming, kept)
            current = combine_over(front, back)
        else:
            current = combine(kept, incoming)
        lo, hi = keep_lo, keep_hi

    fragment = (lo, hi, current)
    fragments = yield from icomm.gather(fragment, root=root)
    if rank != root:
        return None
    return _assemble(fragments, width, height, image.brick_depth)
