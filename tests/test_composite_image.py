"""``CompositeImage`` frames and the z-buffer combine: byte equality with
the combine it replaced, and the frame-mutability contract.

``combine_zbuffer`` shares its first argument's buffers when the second
wins no pixel and otherwise selects whole 16-byte pixels; it promises
the exact bytes of ``tests/oracles/image_combine.py`` (a channel-
broadcast ``np.where`` that always allocates). A select copies bit
patterns, so the comparison is on ``tobytes()`` and the inputs are
arbitrary float32 *bit patterns* — NaN payloads, ``-0.0``, denormals,
``±inf`` — not just numbers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vtk import ImageData, PolyData
from repro.vtk.render import Camera, rasterize, volume_render
from repro.vtk.render.image import CompositeImage, combine_over, combine_zbuffer
from tests.oracles.image_combine import combine_zbuffer_copying


def assert_same_image(got, want):
    assert got.rgba.dtype == want.rgba.dtype == np.float32
    assert got.rgba.shape == want.rgba.shape and got.depth.shape == want.depth.shape
    assert got.rgba.tobytes() == want.rgba.tobytes()
    assert got.depth.tobytes() == want.depth.tobytes()
    assert got.brick_depth == want.brick_depth


def bit_pattern_frame(rng, height, width, brick_depth=0.0):
    """A frame of arbitrary float32 bit patterns, with the special depths
    (``±inf``, ``NaN``, ``±0.0``) over-represented."""
    rgba = rng.integers(0, 2**32, (height, width, 4), dtype=np.uint32).view(np.float32)
    depth = rng.integers(0, 2**32, (height, width), dtype=np.uint32).view(np.float32).copy()
    special = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0], dtype=np.float32)
    pick = rng.random((height, width)) < 0.3
    depth[pick] = rng.choice(special, int(pick.sum()))
    return CompositeImage(rgba, depth, brick_depth)


def drawn_frame(seed, height=12, width=16, brick_depth=0.0, cover=0.6):
    """What a renderer hands over: finite depths where drawn, ``inf`` elsewhere."""
    rng = np.random.default_rng(seed)
    frame = CompositeImage.blank(width, height, brick_depth)
    mask = rng.random((height, width)) < cover
    frame.depth[mask] = 1.0 + rng.random(int(mask.sum())).astype(np.float32)
    frame.rgba[mask] = rng.random((int(mask.sum()), 4)).astype(np.float32)
    return frame


# ---------------------------------------------------------------------------
# combine_zbuffer == the copying oracle, byte for byte
@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    height=st.sampled_from([0, 1, 3, 8]),
    width=st.sampled_from([1, 5, 16]),
    ties=st.floats(0.0, 1.0),
    bricks=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
)
def test_combine_zbuffer_arbitrary_bit_patterns_match_oracle(seed, height, width, ties, bricks):
    rng = np.random.default_rng(seed)
    a = bit_pattern_frame(rng, height, width, bricks[0])
    b = bit_pattern_frame(rng, height, width, bricks[1])
    same = rng.random((height, width)) < ties  # exact ties, NaN == NaN bit-wise included
    b.depth[same] = a.depth[same]
    assert_same_image(combine_zbuffer(a, b), combine_zbuffer_copying(a, b))
    assert_same_image(combine_zbuffer(b, a), combine_zbuffer_copying(b, a))


def test_combine_zbuffer_ties_and_nan_depths_keep_the_first_image():
    a, b = drawn_frame(1), drawn_frame(2)
    b.depth[:] = a.depth  # every pixel a tie (inf == inf too)
    a.depth[0, :4] = np.nan
    b.depth[1, :4] = np.nan
    got = combine_zbuffer(a, b)
    assert_same_image(got, combine_zbuffer_copying(a, b))
    assert got.rgba.tobytes() == a.rgba.tobytes() and got.depth.tobytes() == a.depth.tobytes()


@pytest.mark.parametrize("taken", ["nothing", "one pixel", "everything"])
def test_combine_zbuffer_nothing_one_pixel_and_everything_taken(taken):
    a, b = drawn_frame(3, cover=1.0, brick_depth=2.0), drawn_frame(4, cover=1.0, brick_depth=1.0)
    b.depth += {"nothing": 5.0, "one pixel": 5.0, "everything": -5.0}[taken]
    if taken == "one pixel":
        b.depth[7, 9] = 0.5
    got = combine_zbuffer(a, b)
    assert_same_image(got, combine_zbuffer_copying(a, b))
    # Never the first argument itself: the brick depth is the pair's.
    assert got is not a and got.brick_depth == 1.0 and a.brick_depth == 2.0
    if taken == "one pixel":
        assert got.depth[7, 9] == 0.5 and (got.rgba[7, 9] == b.rgba[7, 9]).all()
        assert int((got.depth != a.depth).sum()) == 1
    if taken == "everything":
        assert got.rgba.tobytes() == b.rgba.tobytes()


@pytest.mark.parametrize("first, second", [("empty", "drawn"), ("drawn", "empty"), ("empty", "empty")])
def test_combine_zbuffer_with_empty_frames_on_either_side(first, second):
    frames = {
        "empty": lambda depth: CompositeImage.empty(16, 12, brick_depth=depth),
        "drawn": lambda depth: drawn_frame(5, brick_depth=depth),
    }
    a, b = frames[first](3.0), frames[second](1.5)
    got = combine_zbuffer(a, b)
    assert_same_image(got, combine_zbuffer_copying(a, b))
    blank = {"empty": lambda depth: CompositeImage.blank(16, 12, depth), "drawn": frames["drawn"]}
    assert_same_image(got, combine_zbuffer_copying(blank[first](3.0), blank[second](1.5)))


@pytest.mark.parametrize("rows", [(0, 0), (5, 5), (4, 5), (0, 1), (2, 9), (0, 13)])
def test_combine_zbuffer_zero_one_and_odd_row_fragments(rows):
    a, b = drawn_frame(6, height=13), drawn_frame(7, height=13)
    got = combine_zbuffer(a.rows(*rows), b.rows(*rows))
    assert got.shape == (rows[1] - rows[0], 16)
    assert_same_image(got, combine_zbuffer_copying(a.rows(*rows), b.rows(*rows)))
    empty = CompositeImage.empty(16, 13)
    assert_same_image(
        combine_zbuffer(empty.rows(*rows), b.rows(*rows)),
        combine_zbuffer_copying(empty.rows(*rows), b.rows(*rows)),
    )


def test_combine_zbuffer_column_sliced_frames_select_whole_pixels():
    """A column slice keeps each pixel's channels adjacent but not the
    pixels of a row: the pixel-wide view must follow the strides."""
    a, b = drawn_frame(8, width=20), drawn_frame(9, width=20)
    cut = lambda im: CompositeImage(im.rgba[:, 3:17:2], im.depth[:, 3:17:2], im.brick_depth)
    assert not cut(a).rgba.flags.c_contiguous
    assert_same_image(combine_zbuffer(cut(a), cut(b)), combine_zbuffer_copying(cut(a), cut(b)))


def test_combine_zbuffer_scattered_channels_work_or_raise_never_misselect():
    """Channels that are not adjacent in memory cannot be viewed as one
    element: an error is fine, the wrong pixel is not."""
    a, b = drawn_frame(10), drawn_frame(11)
    flip = lambda im: CompositeImage(im.rgba[..., ::-1], im.depth, im.brick_depth)
    planar = lambda im: CompositeImage(
        np.moveaxis(np.ascontiguousarray(np.moveaxis(im.rgba, 2, 0)), 0, 2), im.depth, im.brick_depth
    )
    for layout in (flip, planar):
        assert layout(a).rgba.strides[2] != 4
        try:
            got = combine_zbuffer(layout(a), layout(b))
        except ValueError:
            continue
        assert_same_image(got, combine_zbuffer_copying(layout(a), layout(b)))


# ---------------------------------------------------------------------------
# mismatched fragments fail instead of broadcasting
@pytest.mark.parametrize("combine", [combine_zbuffer, combine_over])
def test_combining_fragments_of_different_shapes_raises(combine):
    """NumPy would broadcast a 1-row fragment over an 8-row one and
    return 8 rows: a wrong row range in a swap round would smear."""
    frame = drawn_frame(12, height=8)
    one_row, eight_rows = frame.rows(0, 1), frame.rows(0, 8)
    for a, b in ((one_row, eight_rows), (eight_rows, one_row)):
        with pytest.raises(ValueError, match=r"\(1, 16\).*\(8, 16\)|\(8, 16\).*\(1, 16\)"):
            combine(a, b)
    with pytest.raises(ValueError, match="shapes"):
        combine(frame, CompositeImage.empty(15, 8))
    # Zero-row fragments (more ranks than rows) are fragments like any other.
    none = combine(frame.rows(3, 3), CompositeImage.empty(16, 8).rows(5, 5))
    assert none.shape == (0, 16) and none.rgba.shape == (0, 16, 4)


# ---------------------------------------------------------------------------
# empty(): blank()'s values and sizes, no storage, read-only
@pytest.mark.parametrize("width, height", [(16, 12), (1, 1), (7, 0), (256, 256)])
def test_empty_frame_is_a_blank_frame_without_storage(width, height):
    empty, blank = CompositeImage.empty(width, height, 2.5), CompositeImage.blank(width, height, 2.5)
    assert_same_image(empty, blank)
    assert empty.nbytes == blank.nbytes == 36  # the wire size: a sparse-image header and one run
    assert empty.shape == blank.shape == (height, width)
    if height:
        assert empty.coverage() == blank.coverage() == 0.0
    assert not empty.rgba.flags.writeable and not empty.depth.flags.writeable
    assert not empty.rgba.flags.owndata and not empty.depth.flags.owndata
    # One pixel of storage, whatever the frame: rows and columns do not advance.
    assert empty.depth.strides == (0, 0) and empty.rgba.strides == (0, 0, 4)
    assert empty.rgba.base.nbytes <= 16 and empty.depth.base.nbytes <= 4
    part, blank_part = empty.rows(height // 3, height), blank.rows(height // 3, height)
    assert_same_image(part, blank_part)
    assert part.nbytes == blank_part.nbytes and not part.depth.flags.writeable
    assert_same_image(CompositeImage.empty(width, height), CompositeImage.blank(width, height))


def test_empty_frame_refuses_writes_and_copies_to_a_writable_one():
    empty = CompositeImage.empty(8, 6, brick_depth=1.0)
    with pytest.raises(ValueError, match="read-only"):
        empty.depth[2, 3] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        empty.rgba[2, 3] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        empty.rgba[...] = 0.5
    # The renderers write through ``reshape``: on a stride-0 array that
    # is a read-only view or a private copy, so a render started from
    # ``empty()`` would fail or lose its pixels — it must start from
    # ``blank()``. Either way the frame never changes.
    for flat in (empty.depth.reshape(-1), empty.rgba.reshape(-1, 4)):
        try:
            flat[5] = 7.0
        except ValueError:
            pass
    assert_same_image(empty, CompositeImage.blank(8, 6, brick_depth=1.0))

    copy = empty.copy()
    assert copy.rgba.flags.writeable and copy.rgba.flags.owndata and copy.rgba.flags.c_contiguous
    assert copy.depth.flags.writeable and copy.depth.flags.owndata
    copy.depth[2, 3], copy.rgba[2, 3] = 1.0, 0.5
    assert copy.coverage() == 1 / 48 and empty.coverage() == 0.0
    assert empty.to_uint8().shape == (6, 8, 3) and not empty.to_uint8().any()


def test_renderers_hand_over_frames_they_own():
    """``rasterize`` and ``volume_render`` draw into a ``blank()`` frame:
    what they return is writable and owns its buffers, never a view of a
    shared background pixel."""
    camera = Camera(position=(0, 0, -5), view_width=4, view_height=4)
    triangle = PolyData([(-1, -1, 0), (1, -1, 0), (0, 1, 0)], [(0, 1, 2)])
    brick = ImageData(dims=(6, 6, 6), origin=(-1.0,) * 3, spacing=(0.4,) * 3)
    brick.set_field("f", np.linspace(0.0, 1.0, 216).reshape(6, 6, 6))
    for image in (
        rasterize(triangle, camera, 32, 32),
        volume_render(brick, "f", camera=camera, width=32, height=32),
    ):
        assert image.coverage() > 0.05
        for buffer in (image.rgba, image.depth):
            assert buffer.flags.writeable and buffer.flags.owndata and buffer.flags.c_contiguous


def test_volume_render_with_nothing_to_draw_returns_a_final_empty_frame():
    camera = Camera(position=(0, 0, -5), view_width=4, view_height=4)
    brick = ImageData(dims=(4, 4, 4), origin=(-1.0,) * 3, spacing=(0.5,) * 3)
    brick.set_field("holes", np.full((4, 4, 4), np.nan))
    brick.set_field("cold", np.zeros((4, 4, 4)))
    for field, kwargs in (("holes", {}), ("cold", {"value_range": (0.0, 1.0)})):
        image = volume_render(brick, field, camera=camera, width=16, height=16, **kwargs)
        assert_same_image(image, CompositeImage.blank(16, 16, brick_depth=image.brick_depth))
        assert image.brick_depth == 4.0 and image.depth.strides == (0, 0)
