"""A minimal orthographic camera.

View space: x-right, y-up, z into the scene (depth increases away from
the camera). Projection maps a world-space window of ``view_width`` x
``view_height`` (world units) centered on the focal point to the full
image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

__all__ = ["Camera"]


@dataclass
class Camera:
    position: Tuple[float, float, float] = (0.0, 0.0, -5.0)
    focal_point: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    view_up: Tuple[float, float, float] = (0.0, 1.0, 0.0)
    view_width: float = 4.0
    view_height: float = 4.0

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64)
        focal = np.asarray(self.focal_point, dtype=np.float64)
        forward = focal - pos
        norm = np.linalg.norm(forward)
        if norm == 0:
            raise ValueError("camera position equals focal point")
        self._forward = forward / norm
        up = np.asarray(self.view_up, dtype=np.float64)
        right = np.cross(self._forward, up)
        rnorm = np.linalg.norm(right)
        if rnorm == 0:
            raise ValueError("view_up parallel to view direction")
        self._right = right / rnorm
        self._up = np.cross(self._right, self._forward)
        self._pos = pos

    # The view basis, read-only (the returned arrays are the camera's
    # own; do not mutate): world = origin + x*right + y*up + z*forward.
    @property
    def forward(self) -> np.ndarray:
        """Unit view direction (focal point minus position)."""
        return self._forward

    @property
    def right(self) -> np.ndarray:
        """Unit view-space x axis in world coordinates."""
        return self._right

    @property
    def up(self) -> np.ndarray:
        """Unit view-space y axis (``view_up`` made orthogonal to ``forward``)."""
        return self._up

    @property
    def origin(self) -> np.ndarray:
        """View-space origin in world coordinates (``position`` as an array)."""
        return self._pos

    # ------------------------------------------------------------------
    def world_to_view(self, points: np.ndarray) -> np.ndarray:
        """(N, 3) world points -> (N, 3) view coords (x, y, depth)."""
        rel = np.atleast_2d(points) - self._pos
        return np.column_stack([rel @ self._right, rel @ self._up, rel @ self._forward])

    def view_to_pixels(
        self, view: np.ndarray, width: int, height: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """View coords -> (px, py, depth); py=0 is the image top row."""
        half_w, half_h = self.view_width / 2.0, self.view_height / 2.0
        px = (view[:, 0] + half_w) / self.view_width * (width - 1)
        py = (half_h - view[:, 1]) / self.view_height * (height - 1)
        return px, py, view[:, 2]

    @classmethod
    def fit(cls, bounds: Sequence[float], direction: str = "z", margin: float = 1.15) -> "Camera":
        """A camera looking along +``direction`` that frames ``bounds``."""
        cx = (bounds[0] + bounds[1]) / 2
        cy = (bounds[2] + bounds[3]) / 2
        cz = (bounds[4] + bounds[5]) / 2
        ex = max(bounds[1] - bounds[0], 1e-9)
        ey = max(bounds[3] - bounds[2], 1e-9)
        ez = max(bounds[5] - bounds[4], 1e-9)
        if direction == "z":
            dist = 2.0 * ez + 1.0
            return cls(
                position=(cx, cy, cz - dist),
                focal_point=(cx, cy, cz),
                view_up=(0, 1, 0),
                view_width=margin * max(ex, 1e-9),
                view_height=margin * max(ey, 1e-9),
            )
        if direction == "x":
            dist = 2.0 * ex + 1.0
            return cls(
                position=(cx - dist, cy, cz),
                focal_point=(cx, cy, cz),
                view_up=(0, 0, 1),
                view_width=margin * ey,
                view_height=margin * ez,
            )
        raise ValueError(f"unsupported fit direction {direction!r}")
