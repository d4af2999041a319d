"""``combine_zbuffer`` as it was while it looked at every channel of every pixel.

:func:`repro.vtk.render.image.combine_zbuffer` now returns its first
argument's buffers when nothing is taken and otherwise selects whole
16-byte pixels; this is the body it had before — a channel-broadcast
``np.where`` that always allocates — moved not edited. The production
function promises the same bytes (``tests/test_composite_image.py``).
"""

from __future__ import annotations

import numpy as np

from repro.vtk.render.image import CompositeImage

__all__ = ["combine_zbuffer_copying"]


def combine_zbuffer_copying(a: CompositeImage, b: CompositeImage) -> CompositeImage:
    """Per-pixel nearest-fragment wins (opaque geometry compositing)."""
    take_b = b.depth < a.depth
    rgba = np.where(take_b[..., None], b.rgba, a.rgba)
    depth = np.where(take_b, b.depth, a.depth)
    return CompositeImage(rgba, depth, min(a.brick_depth, b.brick_depth))
