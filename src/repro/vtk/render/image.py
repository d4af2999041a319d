"""The composited image unit: RGBA + depth (+ brick ordering key).

The host cost of a frame follows its *active* pixels (finite depth), not
its size: a frame nobody drew into is :meth:`CompositeImage.empty` — no
storage, O(1) to make — and :func:`combine_zbuffer` allocates nothing
when the second image wins no pixel, which is every combine of a
virtual-block run and about half of those on rendered iso-surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

__all__ = ["CompositeImage"]


@dataclass
class CompositeImage:
    """An RGBA framebuffer with a depth buffer.

    - ``rgba``: (H, W, 4) float32 in [0, 1], premultiplied alpha.
    - ``depth``: (H, W) float32 view-space depth; ``inf`` where empty.
    - ``brick_depth``: scalar ordering key for translucent (over)
      compositing — the view-space depth of the rank's data brick.

    **Who may write a frame.** Only the code that made it with
    :meth:`blank` — the renderers, which fill the frame they return, and
    the compositor's fragment assembly — and only until it hands the
    frame on. Everything downstream reads: the compositor sends and
    combines views (:meth:`rows`), and a combine result may *alias its
    first argument's buffers* (:func:`combine_zbuffer` when nothing is
    taken), so writing into any frame one did not make can change
    another. A frame that is final and has nothing in it is
    :meth:`empty`: same ``shape``, ``nbytes`` (wire size), ``coverage()``
    and ``rows()`` as :meth:`blank`, but read-only and without storage;
    :meth:`copy` gives a writable frame that owns its data.
    """

    rgba: np.ndarray
    depth: np.ndarray
    brick_depth: float = 0.0

    def __post_init__(self):
        self.rgba = np.asarray(self.rgba, dtype=np.float32)
        self.depth = np.asarray(self.depth, dtype=np.float32)
        if self.rgba.ndim != 3 or self.rgba.shape[2] != 4:
            raise ValueError(f"rgba must be (H, W, 4), got {self.rgba.shape}")
        if self.depth.shape != self.rgba.shape[:2]:
            raise ValueError(
                f"depth shape {self.depth.shape} != image {self.rgba.shape[:2]}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def blank(cls, width: int, height: int, brick_depth: float = 0.0) -> "CompositeImage":
        """A writable background frame, for code that is about to draw."""
        return cls(
            rgba=np.zeros((height, width, 4), dtype=np.float32),
            depth=np.full((height, width), np.inf, dtype=np.float32),
            brick_depth=brick_depth,
        )

    @classmethod
    def empty(cls, width: int, height: int, brick_depth: float = 0.0) -> "CompositeImage":
        """A final background frame: :meth:`blank`'s values, read-only,
        as stride-0 broadcasts of one pixel (``0, 0, 0, 0`` / ``inf``).

        Not a starting point for drawing — a write raises, or on a NumPy
        whose ``reshape`` copies a stride-0 array is lost.
        """
        return cls(
            rgba=np.broadcast_to(np.zeros(4, dtype=np.float32), (height, width, 4)),
            depth=np.broadcast_to(np.float32(np.inf), (height, width)),
            brick_depth=brick_depth,
        )

    @property
    def shape(self) -> Tuple[int, int]:
        return self.depth.shape

    @property
    def nbytes(self) -> int:
        return self.rgba.nbytes + self.depth.nbytes

    def coverage(self) -> float:
        """Fraction of pixels with any content."""
        return float(np.isfinite(self.depth).mean())

    def copy(self) -> "CompositeImage":
        return CompositeImage(self.rgba.copy(), self.depth.copy(), self.brick_depth)

    # ------------------------------------------------------------------
    def rows(self, start: int, stop: int) -> "CompositeImage":
        """A view-slice of image rows [start, stop) (shares buffers)."""
        return CompositeImage(self.rgba[start:stop], self.depth[start:stop], self.brick_depth)

    def to_uint8(self, background: Tuple[float, float, float] = (0.0, 0.0, 0.0)) -> np.ndarray:
        """Flatten onto a background color; returns (H, W, 3) uint8."""
        bg = np.asarray(background, dtype=np.float32)
        alpha = self.rgba[..., 3:4]
        rgb = self.rgba[..., :3] + (1.0 - alpha) * bg
        return (np.clip(rgb, 0, 1) * 255).astype(np.uint8)

    def write_ppm(self, path: str, background: Tuple[float, float, float] = (0, 0, 0)) -> None:
        """Write a binary PPM (no external imaging dependency needed)."""
        rgb = self.to_uint8(background)
        h, w, _ = rgb.shape
        with open(path, "wb") as fh:
            fh.write(f"P6\n{w} {h}\n255\n".encode())
            fh.write(rgb.tobytes())


# One RGBA pixel (4 x float32) as a single opaque 16-byte element.
_PIXEL = np.dtype("V16")


def combine_zbuffer(a: CompositeImage, b: CompositeImage) -> CompositeImage:
    """Per-pixel nearest-fragment wins (opaque geometry compositing).

    ``b`` takes a pixel where its depth is strictly less; ties and NaN
    depths keep ``a``. When ``b`` takes nothing the result *shares*
    ``a``'s buffers (a new image all the same: its brick depth is the
    minimum of the two). Otherwise whole pixels are selected: ``rgba``
    is viewed as one 16-byte element per pixel, so ``np.where`` makes
    one choice per pixel instead of broadcasting the mask over four
    channels (a third of the time, the same bytes — a select copies bit
    patterns, NaN payloads and ``-0.0`` included).
    """
    # NumPy would broadcast a 1-row fragment over an 8-row one: a wrong
    # row range in a swap round must fail, not smear.
    if a.shape != b.shape:
        raise ValueError(f"cannot z-combine images of shapes {a.shape} and {b.shape}")
    take_b = b.depth < a.depth
    brick_depth = min(a.brick_depth, b.brick_depth)
    if not take_b.any():
        return CompositeImage(a.rgba, a.depth, brick_depth)
    # The view needs each pixel's four channels adjacent (any frame, row
    # or column slice of one); anything else raises rather than mis-select.
    pixels = np.where(take_b[..., None], b.rgba.view(_PIXEL), a.rgba.view(_PIXEL))
    depth = np.where(take_b, b.depth, a.depth)
    return CompositeImage(pixels.view(np.float32), depth, brick_depth)


def combine_over(front: CompositeImage, back: CompositeImage) -> CompositeImage:
    """Front-to-back 'over' operator on premultiplied RGBA (volumes)."""
    if front.shape != back.shape:  # as in combine_zbuffer: never broadcast
        raise ValueError(f"cannot blend images of shapes {front.shape} and {back.shape}")
    fa = front.rgba[..., 3:4]
    rgba = front.rgba + (1.0 - fa) * back.rgba
    depth = np.minimum(front.depth, back.depth)
    return CompositeImage(rgba, depth, min(front.brick_depth, back.brick_depth))
