"""Software rendering: rasterizer + volume ray-marcher.

Produces :class:`CompositeImage` objects (RGBA + depth) that IceT can
composite across ranks. Not OpenGL — but the images are real (PNG-
writable), the depth semantics are exactly what IceT needs, and the
costs (pixels, cells traversed) drive the DES pipeline timing model.
"""

from repro.vtk.render.camera import Camera
from repro.vtk.render.color import colormap, opacity_ramp
from repro.vtk.render.image import CompositeImage
from repro.vtk.render.rasterizer import rasterize
from repro.vtk.render.volume import volume_render

__all__ = [
    "Camera",
    "CompositeImage",
    "colormap",
    "opacity_ramp",
    "rasterize",
    "volume_render",
]
