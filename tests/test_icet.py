"""Tests for IceT compositing: correctness vs a serial reference, both
strategies, both operators, both transports, and the factory registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.icet import (
    IceTContext,
    MonaIceTCommunicator,
    MPIIceTCommunicator,
    binary_swap,
    context_from_controller,
    reduce_to_root,
    register_communicator_factory,
)
from repro.mpi import MpiWorld
from repro.na import Fabric
from repro.sim import Simulation
from repro.testing import build_mona_world, run_all
from repro.vtk.parallel import MonaController, MPIController
from repro.vtk.render.image import CompositeImage, combine_over
from tests.oracles.image_combine import combine_zbuffer_copying


def random_images(count, width=16, height=12, seed=0, volume=False):
    """Per-rank images with disjoint-ish depth bricks."""
    rng = np.random.default_rng(seed)
    images = []
    for r in range(count):
        img = CompositeImage.blank(width, height, brick_depth=float(r))
        mask = rng.random((height, width)) < 0.6
        img.depth[mask] = r + rng.random(mask.sum()).astype(np.float32)
        alpha = 0.5 if volume else 1.0
        color = rng.random(3)
        img.rgba[mask, :3] = (color * alpha).astype(np.float32)
        img.rgba[mask, 3] = alpha
        images.append(img)
    return images


def with_empty_ranks(images, empties):
    """``images`` with the ranks in ``empties`` replaced by a stride-0
    ``CompositeImage.empty`` frame (same size, same brick depth) — what a
    server with nothing to draw contributes."""
    return [
        CompositeImage.empty(im.shape[1], im.shape[0], im.brick_depth) if r in empties else im
        for r, im in enumerate(images)
    ]


def empty_rank_mixes(size):
    """No empty rank, every other one, all but the last, all of them."""
    return [set(), set(range(0, size, 2)), set(range(size - 1)), set(range(size))]


def serial_reference(images, op):
    combine = combine_zbuffer_copying if op == "zbuffer" else combine_over
    ordered = sorted(images, key=lambda im: im.brick_depth)
    result = ordered[0]
    for piece in ordered[1:]:
        result = combine(result, piece)
    return result


def composite_with_mona(images, strategy, op, root=0):
    sim = Simulation()
    _, _, comms = build_mona_world(sim, len(images))
    fn = binary_swap if strategy == "bswap" else reduce_to_root

    def body(c, img):
        icomm = MonaIceTCommunicator(c)
        return (yield from fn(icomm, img, op=op, root=root))

    return run_all(sim, [body(c, img) for c, img in zip(comms, images)])


# ---------------------------------------------------------------------------
@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("strategy", ["bswap", "reduce"])
def test_zbuffer_composite_matches_serial(size, strategy):
    images = random_images(size, seed=size)
    expected = serial_reference([im.copy() for im in images], "zbuffer")
    results = composite_with_mona(images, strategy, "zbuffer")
    final = results[0]
    assert final is not None
    assert np.allclose(final.depth, expected.depth)
    assert np.allclose(final.rgba, expected.rgba, atol=1e-6)
    for other in results[1:]:
        assert other is None


@pytest.mark.parametrize("size", [2, 4, 6])
@pytest.mark.parametrize("strategy", ["bswap", "reduce"])
def test_over_composite_matches_serial(size, strategy):
    images = random_images(size, seed=10 + size, volume=True)
    expected = serial_reference([im.copy() for im in images], "over")
    results = composite_with_mona(images, strategy, "over")
    assert np.allclose(results[0].rgba, expected.rgba, atol=1e-5)


@pytest.mark.parametrize("size", [2, 3, 4, 5, 8, 32])
@pytest.mark.parametrize("op", ["zbuffer", "over"])
def test_bswap_passes_views_and_never_writes_its_inputs(size, op):
    """Binary swap sends and combines *views* of the image it holds, and
    a z-buffer combine that takes nothing hands back its first
    argument's buffers: with every input buffer write-protected (so an
    in-place write anywhere on the path would raise) the composite is
    byte-equal to the copying oracle's, on the same simulated schedule,
    and the callers' images are untouched — for rendered frames and for
    every mix of them with ``empty()`` ones."""
    from tests.oracles.icet_copying import binary_swap_copying

    def run(fn, images):
        sim = Simulation()
        _, _, comms = build_mona_world(sim, len(images))

        def body(c, img):
            return (yield from fn(MonaIceTCommunicator(c), img, op=op))

        results = run_all(sim, [body(c, img) for c, img in zip(comms, images)])
        return results, sim

    for empties in empty_rank_mixes(size):
        rendered = random_images(size, width=16, height=13, seed=40 + size, volume=(op == "over"))
        images = with_empty_ranks(rendered, empties)
        pristine = [im.copy() for im in images]
        for im in images:
            im.rgba.setflags(write=False)
            im.depth.setflags(write=False)
        (final, *others), sim = run(binary_swap, images)
        (want, *_), oracle_sim = run(binary_swap_copying, [im.copy() for im in pristine])
        assert final.rgba.tobytes() == want.rgba.tobytes()
        assert final.depth.tobytes() == want.depth.tobytes()
        assert final.brick_depth == want.brick_depth and all(o is None for o in others)
        assert (final.coverage() == 0.0) == (len(empties) == size)
        # Views and empty frames report the bytes they cover: same wire
        # traffic, same clock.
        assert sim.metrics.get("na.bytes_sent").value == oracle_sim.metrics.get("na.bytes_sent").value
        assert sim.now == oracle_sim.now
        for im, orig in zip(images, pristine):
            assert im.rgba.tobytes() == orig.rgba.tobytes() and im.depth.tobytes() == orig.depth.tobytes()


@pytest.mark.parametrize("size, height", [(8, 3), (5, 1), (32, 8)])
@pytest.mark.parametrize("strategy", ["bswap", "reduce"])
@pytest.mark.parametrize("op", ["zbuffer", "over"])
def test_more_ranks_than_rows_swaps_zero_row_fragments(size, height, strategy, op):
    """With fewer rows than ranks most ranks end a binary swap owning a
    0-row fragment; combining two of those is legal (same shape), only a
    *mismatch* raises."""
    for empties in (set(), set(range(1, size, 2))):
        images = with_empty_ranks(
            random_images(size, width=6, height=height, seed=size, volume=(op == "over")), empties
        )
        expected = serial_reference([im.copy() for im in images], op)
        final = composite_with_mona(images, strategy, op)[0]
        assert final.shape == (height, 6)
        if op == "zbuffer":
            assert final.rgba.tobytes() == expected.rgba.tobytes()
            assert final.depth.tobytes() == expected.depth.tobytes()
        else:
            assert np.allclose(final.rgba, expected.rgba, atol=1e-5)
            assert np.array_equal(final.depth, expected.depth)


def test_nonroot_root_parameter():
    images = random_images(4, seed=3)
    expected = serial_reference([im.copy() for im in images], "zbuffer")
    results = composite_with_mona(images, "bswap", "zbuffer", root=2)
    assert results[0] is None
    assert np.allclose(results[2].depth, expected.depth)


def test_composite_over_mpi_matches_mona():
    """Transport independence: same pixels through either stack."""
    images = random_images(4, seed=7)
    expected = serial_reference([im.copy() for im in images], "zbuffer")

    sim = Simulation()
    fabric = Fabric(sim)
    world = MpiWorld(sim, fabric, 4, profile="craympich")

    def body(rank, img):
        icomm = MPIIceTCommunicator(world.comm_world(rank))
        return (yield from binary_swap(icomm, img, op="zbuffer"))

    results = run_all(sim, [body(r, img) for r, img in zip(range(4), images)])
    assert np.allclose(results[0].depth, expected.depth)
    assert np.allclose(results[0].rgba, expected.rgba, atol=1e-6)


def test_invalid_op_and_strategy():
    sim = Simulation()
    _, _, comms = build_mona_world(sim, 2)
    icomm = MonaIceTCommunicator(comms[0])
    with pytest.raises(ValueError):
        IceTContext(icomm, strategy="direct")
    images = random_images(2)

    def body(c, img):
        return (yield from binary_swap(MonaIceTCommunicator(c), img, op="multiply"))

    with pytest.raises(ValueError):
        run_all(sim, [body(c, img) for c, img in zip(comms, images)])


# ---------------------------------------------------------------------------
# factory registry (the paper's ParaView fix)
def test_mpi_factory_registered_by_default():
    sim = Simulation()
    world = MpiWorld(sim, Fabric(sim), 1)
    assert context_from_controller(MPIController(world.comm_world(0))).icomm.kind == "mpi"


def test_unregistered_kind_raises_downcast_error():
    """Without the factory fix, a non-MPI controller cannot be converted."""
    import repro.icet.context as ctx_mod

    sim = Simulation()
    _, _, comms = build_mona_world(sim, 1)
    controller = MonaController(comms[0])
    saved = ctx_mod._FACTORIES.pop("mona", None)
    try:
        with pytest.raises(TypeError, match="factory"):
            context_from_controller(controller)
    finally:
        if saved is not None:
            ctx_mod._FACTORIES["mona"] = saved


def test_registering_mona_factory_enables_conversion():
    sim = Simulation()
    _, _, comms = build_mona_world(sim, 1)
    controller = MonaController(comms[0])
    register_communicator_factory(
        "mona", lambda c: MonaIceTCommunicator(c.communicator.comm)
    )
    ctx = context_from_controller(controller)
    assert ctx.icomm.kind == "mona"


def test_context_composite_runs_end_to_end():
    register_communicator_factory(
        "mona", lambda c: MonaIceTCommunicator(c.communicator.comm)
    )
    images = random_images(3, seed=5)
    expected = serial_reference([im.copy() for im in images], "zbuffer")
    sim = Simulation()
    _, _, comms = build_mona_world(sim, 3)

    def body(c, img):
        ctx = context_from_controller(MonaController(c))
        return (yield from ctx.composite(img))

    results = run_all(sim, [body(c, img) for c, img in zip(comms, images)])
    assert np.allclose(results[0].depth, expected.depth)


# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    size=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 32]),
    seed=st.integers(min_value=0, max_value=50),
    strategy=st.sampled_from(["bswap", "reduce"]),
    empties=st.sets(st.integers(min_value=0, max_value=31)),
)
def test_property_bswap_equals_serial_reference(size, seed, strategy, empties):
    """Either strategy, any mix of rendered and ``empty()`` frames: the
    nearest fragment wins whatever the order of the pairwise combines
    (depths are distinct), so the bytes are the serial fold's."""
    images = with_empty_ranks(random_images(size, width=8, height=8, seed=seed), empties)
    expected = serial_reference([im.copy() for im in images], "zbuffer")
    final = composite_with_mona(images, strategy, "zbuffer")[0]
    assert final.depth.tobytes() == expected.depth.tobytes()
    assert final.rgba.tobytes() == expected.rgba.tobytes()
    assert final.brick_depth == expected.brick_depth
