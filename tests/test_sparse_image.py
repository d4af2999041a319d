"""A composited fragment costs the wire what IceT's sparse image of it
takes: the declared size is the length of a real, lossless encoding.

``CompositeImage.nbytes`` (what ``payload_nbytes`` charges the fabric)
declares that size without building it; ``tests/oracles/sparse_image.py``
builds it. Every frame here must price at exactly ``len(encode(frame))``
and come back from ``decode`` bit for bit — including every fragment a
4-rank binary swap sends of frames the renderers drew, which is what
shows that the renderers and combines leave inactive pixels exactly at
the background: otherwise the declared size would describe a lossy
encoding.
"""

import numpy as np
import pytest

from repro.icet import MonaIceTCommunicator, binary_swap
from repro.na import payload_nbytes
from repro.sim import Simulation
from repro.testing import build_mona_world, run_all
from repro.vtk.render.image import CompositeImage
from tests.oracles.sparse_image import decode, encode


def assert_priced_as_its_encoding(image):
    data = encode(image)
    assert payload_nbytes(image) == image.nbytes == len(data)
    back = decode(data)
    assert back.shape == image.shape
    assert back.rgba.tobytes() == image.rgba.tobytes()
    assert back.depth.tobytes() == image.depth.tobytes()


def frame(active, width, seed=0):
    """A frame ``width`` pixels wide, active where the row-major mask
    ``active`` says: random finite depth bit patterns (``-0.0`` where the
    draw is not finite) and arbitrary float32 bit patterns in colour
    there, background elsewhere."""
    mask = np.asarray(active, dtype=bool).reshape(-1, width)
    rng = np.random.default_rng(seed)
    image = CompositeImage.blank(width, mask.shape[0])
    n = int(mask.sum())
    image.rgba[mask] = rng.integers(0, 2**32, (n, 4), dtype=np.uint32).view(np.float32)
    depth = rng.integers(0, 2**32, n, dtype=np.uint32).view(np.float32)
    image.depth[mask] = np.where(np.isfinite(depth), depth, np.float32(-0.0))
    return image


W, H = 16, 12
N = W * H


def _ends(*positions):
    mask = np.zeros(N, dtype=bool)
    mask[list(positions)] = True
    return mask


MASKS = {
    "all inactive": np.zeros(N),
    "all active": np.ones(N),
    "alternating": np.arange(N) % 2,
    "alternating from the second": (np.arange(N) + 1) % 2,
    "first and last": _ends(0, N - 1),
    "first only": _ends(0),
    "last only": _ends(N - 1),
    "row edges": np.tile(np.r_[1, np.zeros(W - 2), 1], H),
}


@pytest.mark.parametrize("name", list(MASKS))
def test_crafted_masks(name):
    image = frame(MASKS[name], W)
    assert_priced_as_its_encoding(image)
    for rows in ((0, 0), (0, 1), (H - 1, H), (3, 8)):
        assert_priced_as_its_encoding(image.rows(*rows))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("height, width", [(0, 5), (1, 1), (1, 16), (3, 7), (12, 16), (40, 64)])
def test_random_masks(seed, height, width):
    rng = np.random.default_rng(seed)
    for cover in (0.02, 0.5, 0.98):
        image = frame(rng.random(height * width) < cover, width, seed)
        assert_priced_as_its_encoding(image)
        assert_priced_as_its_encoding(image.rows(height // 3, height))


@pytest.mark.parametrize("width, height", [(16, 12), (1, 1), (7, 0), (256, 256)])
def test_empty_frames_and_their_row_slices(width, height):
    empty = CompositeImage.empty(width, height, brick_depth=2.0)
    for rows in ((0, height), (0, 0), (height // 3, height), (0, min(1, height))):
        part = empty.rows(*rows)
        assert part.depth.strides == (0, 0)
        assert_priced_as_its_encoding(part)
        assert part.nbytes == 28 + 8  # a header and one run, whatever its size


def test_a_frame_with_colour_where_nothing_is_drawn_does_not_survive_the_encoding():
    """Why the renderers' frames are checked: colour on an inactive pixel
    is not sent, so such a frame would be priced for less than it holds."""
    image = frame(MASKS["first and last"], W)
    image.rgba[5, 5] = 0.25
    assert decode(encode(image)).rgba.tobytes() != image.rgba.tobytes()


def _swap_on_the_wire(images, op):
    """Run a binary swap of ``images`` on a MoNA world. Returns the
    result, what each rank handed the transport as ``(call, rank, peer,
    payload)`` — ``call`` being ``"send"``, ``"sendrecv"`` (a swap
    round's exchange) or ``"gather"`` (to the root) — and every message
    that went on the wire as ``(source rank, destination rank, nbytes)``,
    read off the trace's ``na.send`` rows."""
    sim = Simulation(seed=1)
    _, instances, comms = build_mona_world(sim, len(images))
    handed = []

    class Recording(MonaIceTCommunicator):
        def send(self, dest, payload, tag=0):
            handed.append(("send", self.rank, dest, payload))
            return (yield from super().send(dest, payload, tag))

        def sendrecv(self, dest, payload, source, tag=0):
            handed.append(("sendrecv", self.rank, dest, payload))
            return (yield from super().sendrecv(dest, payload, source, tag))

        def gather(self, payload, root=0):
            handed.append(("gather", self.rank, root, payload))
            return (yield from super().gather(payload, root=root))

    def body(comm, image):
        return (yield from binary_swap(Recording(comm), image, op=op))

    first = len(sim.trace.spans)
    final, *_ = run_all(sim, [body(c, im) for c, im in zip(comms, images)])
    rank = {instance.address: r for r, instance in enumerate(instances)}
    wire = [
        (rank[s.tags["src"]], rank[s.tags["dest"]], s.tags["nbytes"])
        for s in sim.trace.find("na.send", first)
    ]
    return final, handed, wire


def _expected_wire(handed):
    """The messages ``handed`` puts on a 4-rank wire: one per send or
    swap round, priced as its payload (a fragment as its encoding), and
    for each gather the ``{rank: payload}`` bucket of each sender's
    subtree — the binomial tree carries rank 3's entry twice (3 -> 2 -> 0)."""
    wire, gathers = [], [[] for _ in range(4)]
    for call, r, peer, payload in handed:
        if call == "gather":
            gathers[r].append(payload)
        elif isinstance(payload, CompositeImage):
            wire.append((r, peer, len(encode(payload))))
        else:
            wire.append((r, peer, payload_nbytes(payload)))
    for parts in zip(*gathers):  # the i-th gather of every rank
        entry = [payload_nbytes({r: p}) for r, p in enumerate(parts)]
        wire += [(1, 0, entry[1]), (3, 2, entry[3]), (2, 0, entry[2] + entry[3])]
    return wire


def _iso_frames():
    """Each of four servers' frame of ``gs_iso_real``'s last iteration."""
    from repro.vtk.render import rasterize
    from tests.test_perf_budgets import _gray_scott_server_surface

    frames = []
    for server in range(4):
        surface, camera = _gray_scott_server_surface(server=server)
        frames.append(rasterize(surface, camera, 256, 256, color_field="v", value_range=(0.12, 0.25)))
    return frames


def _volume_frames():
    """Each of four servers' frame of ``dwi_volume_real`` (snapshot 20)."""
    from repro.vtk.filters import resample_to_image
    from repro.vtk.render import volume_render
    from tests.test_perf_budgets import _dwi_brick_scene

    frames = []
    for server in range(4):
        mesh, camera = _dwi_brick_scene(server=server)
        brick = resample_to_image(mesh, (32, 32, 32), fields=["velocity"])
        frames.append(volume_render(brick, "velocity", camera=camera, width=128, height=128))
    return frames


@pytest.mark.parametrize(
    "op, frames", [("zbuffer", _iso_frames), ("over", _volume_frames)], ids=["iso", "volume"]
)
def test_every_fragment_of_a_binary_swap_of_rendered_frames(op, frames):
    images = frames()
    assert all(0.0 < im.coverage() < 1.0 for im in images)
    final, handed, wire = _swap_on_the_wire(images, op)
    # A fragment from each rank in each of the two swap rounds, and each
    # rank's ``(lo, hi, fragment)`` for the gather to the root.
    fragments = [p for call, _, _, p in handed if call == "sendrecv"]
    fragments += [p[2] for call, _, _, p in handed if call == "gather" and isinstance(p, tuple)]
    assert len(fragments) == 4 * 2 + 4
    assert any(0.0 < part.coverage() < 1.0 for part in fragments)
    for part in fragments:
        assert_priced_as_its_encoding(part)
    assert_priced_as_its_encoding(final)
    # ... and the wire carried exactly those encodings, message by message.
    assert sorted(wire) == sorted(_expected_wire(handed))
