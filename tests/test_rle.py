"""Core RLE representation: construction, transforms, set operations."""
import copy
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rlemorph.generate import blob_image
from rlemorph.rle import (
    EMPTY,
    Point,
    Rect,
    RleImage,
    Run,
    bounding_rect,
    complement_within,
    drop_short_runs,
    from_raster,
    intersect,
    normalize,
    reflect,
    to_raster,
    translate,
    union,
)

from helpers import grids, images, img, points, rects


class TestNormalize:
    def test_adjacent_runs_merge(self):
        assert normalize([(1, 3, 0), (4, 6, 0)]) == img((1, 6, 0))

    def test_overlap_merges(self):
        assert normalize([(2, 5, 1), (0, 3, 1)]) == img((0, 5, 1))

    def test_sort_and_gap_preserved(self):
        assert normalize([(0, 0, 2), (0, 0, 0), (2, 2, 0)]) == img(
            (0, 0, 0), (2, 2, 0), (0, 0, 2)
        )

    def test_rejects_malformed_run(self):
        with pytest.raises(ValueError, match="lx > rx"):
            normalize([(3, 1, 0)])

    def test_huge_coordinates(self):
        # a bounding box with more cells than an int64 can count
        big = 2**40
        a = normalize([(-big, big, 5), (0, 0, big), (3, 3, -big), (1, 2, -big)])
        assert a == img((1, 3, -big), (-big, big, 5), (0, 0, big))
        assert intersect(a, img((0, 10, 5), (0, 0, big))) == img((0, 10, 5), (0, 0, big))

    @given(st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 6),
                              st.integers(-20, 20))))
    def test_idempotent_and_valid(self, triples):
        runs = [(lx, lx + n, y) for lx, n, y in triples]
        a = normalize(runs)
        assert normalize(a.runs) == a

    @given(st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 6),
                              st.integers(-20, 20))))
    def test_pixel_set_preserved(self, triples):
        runs = [(lx, lx + n, y) for lx, n, y in triples]
        expected = {(x, y) for lx, rx, y in runs for x in range(lx, rx + 1)}
        assert normalize(runs).pixel_set() == expected


class TestRleImage:
    def test_value_semantics(self):
        runs = (Run(-1, 2, 0), Run(4, 4, 0), Run(0, 0, 3))
        a = RleImage(runs)
        b = RleImage(np.array(runs))
        assert a == b and hash(a) == hash(b) and len(a) == 3
        assert a.runs == runs and list(a) == list(runs)
        assert a != RleImage(runs[:2]) and a != runs
        assert EMPTY == RleImage(np.empty((0, 3))) and len(EMPTY) == 0
        assert {a, b, EMPTY} == {a, EMPTY}
        assert copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a

    @pytest.mark.parametrize("runs", [
        [(0, 2**70, 0)], [(-2**63, 0, 0)], [(0, 2**61 + 1, 0)], [(0, 0, -2**61 - 1)],
        np.array([[0, 1, 0], [0, 2**62, 1]]),
    ], ids=["past-int64", "int64-min", "right", "up", "array"])
    def test_coordinates_beyond_bound_rejected(self, runs):
        with pytest.raises(ValueError, match=r"coordinate beyond \+-2\*\*61"):
            RleImage(runs)

    @pytest.mark.parametrize("build", [RleImage, normalize])
    @pytest.mark.parametrize("runs", [
        [(0.5, 1.5, 0)], [(0, 2, 1.0)], [("1", "2", "0")], [(0, True, 0)],
        np.array([[0.7, 3.9, 1.2]]), np.array([[True, True, False]]),
        [(0, 2**70, 0.5)],
    ], ids=["float", "float-y", "str", "bool", "float-array", "bool-array",
            "float-and-past-int64"])
    def test_non_integer_coordinates_rejected(self, runs, build):
        with pytest.raises(ValueError, match=r"run Run\(.*\) has a non-integer coordinate"):
            build(runs)

    @pytest.mark.parametrize("v", [
        Point(0.5, 0), Point(0, 1.0), Point(True, 0), Point(2**63, 0), Point(0, -2**63 - 1),
    ], ids=["float", "float-y", "bool", "past-int64", "below-int64"])
    def test_translate_offset_must_be_int64(self, v):
        with pytest.raises(ValueError, match="offset"):
            translate(img((0, 4, 0)), v)

    @pytest.mark.parametrize("move, match", [
        (lambda: from_raster([[1, 1, 0]], Point(0.5, 1.5)), "offset .* not a pair of integers"),
        (lambda: from_raster([[1]], Point(True, 0)), "offset .* not a pair of integers"),
        (lambda: from_raster([[1]], Point(0, "2")), "offset .* not a pair of integers"),
        (lambda: from_raster([[0]], Point(0.5, 0)), "offset .* not a pair of integers"),
        (lambda: translate(EMPTY, Point(0, 1.0)), "offset .* not a pair of integers"),
        (lambda: from_raster([[1]], Point(2**63, 0)), r"offset .* beyond \+-2\*\*62"),
        (lambda: from_raster([[1]], Point(0, -2**62 - 1)), r"offset .* beyond \+-2\*\*62"),
        (lambda: translate(RleImage([(5, 5, 0)]), Point(2**63 - 1, 0)),
         r"offset .* beyond \+-2\*\*62"),
        (lambda: translate(img((0, 4, 0)), Point(0, 2**62 + 1)), r"offset .* beyond \+-2\*\*62"),
    ], ids=["raster-float", "raster-bool", "raster-str", "raster-background-float",
            "empty-float", "raster-past-int64", "raster-below", "wrapping-sum", "just-beyond"])
    def test_offset_checked(self, move, match):
        # One check serves translate and from_raster: the offset is named,
        # not a run its wrapped or truncated sum would give.
        with pytest.raises(ValueError, match=match):
            move()

    def test_offsets_within_bound_accepted(self):
        edge = 2**61
        assert translate(img((-edge, -edge, 0)), Point(2 * edge, 0)) == img((edge, edge, 0))
        assert translate(img((0, 0, edge)), Point(0, -2 * edge)) == img((0, 0, -edge))
        assert translate(EMPTY, Point(2**63 - 1, 0)) == EMPTY
        assert translate(EMPTY, Point(2**70, -2**70)) == EMPTY
        assert from_raster(np.zeros((2, 3)), Point(2**70, 0)) == EMPTY
        assert from_raster([[1, 1, 0]], Point(np.int64(-edge), np.uint64(edge))) == img(
            (-edge, 1 - edge, edge))
        assert from_raster([[1]], Point(np.int32(-3), np.uint8(2))) == img((-3, -3, 2))
        assert from_raster(np.zeros((0, 3)), Point(-4, 9)) == EMPTY

    @pytest.mark.parametrize("bounds", [
        (0.5, 5.7, 0, 0), (0, 5, 0.0, 0), (False, 5, 0, 0), (0, "5", 0, 0),
    ], ids=["float", "float-t", "bool", "str"])
    def test_rect_bounds_must_be_integers(self, bounds):
        with pytest.raises(ValueError, match="non-integer bound"):
            complement_within(RleImage([(2, 3, 0)]), Rect(*bounds))

    def test_integer_arrays_accepted(self):
        for dtype in (np.int32, np.int64, np.uint8):
            assert RleImage(np.array([[0, 4, 0]], dtype=dtype)) == img((0, 4, 0))
        assert translate(img((0, 4, 0)), (np.int32(2), np.int64(-1))) == img((2, 6, -1))
        rect = Rect(np.int64(0), np.int32(5), np.uint8(0), 0)
        assert complement_within(img((2, 3, 0)), rect) == img((0, 1, 0), (4, 5, 0))

    def test_coordinate_bound(self):
        edge = 2**61
        a = img((-edge, edge, -edge), (0, 0, edge))
        assert a.pixel_count() == 2**62 + 2
        with pytest.raises(ValueError, match="beyond"):
            translate(a, Point(2**62, 0))  # moves x = 2**61 to 3 * 2**61

    def test_read_only(self):
        source = np.array([[0, 3, 0]])
        a = RleImage(source)
        source[0, 1] = 9  # the image keeps its own copy
        assert a == img((0, 3, 0))
        with pytest.raises(ValueError):
            a.array[0, 0] = 1
        with pytest.raises(AttributeError):
            a.array = np.empty((0, 3), dtype=np.int64)


class TestRaster:
    def test_single_row(self):
        assert from_raster([[True, True, True]]) == img((0, 2, 0))

    def test_gap_with_offset(self):
        assert from_raster([[True, False, True]], Point(-1, 0)) == img(
            (-1, -1, 0), (1, 1, 0)
        )

    def test_all_false(self):
        assert from_raster(np.zeros((4, 4), dtype=bool)) == EMPTY

    def test_to_raster_examples(self):
        grid, off = to_raster(img((0, 2, 0)))
        assert grid.shape == (1, 3) and grid.all() and off == Point(0, 0)
        grid, off = to_raster(img((-1, -1, 0), (1, 1, 0)))
        assert off == Point(-1, 0)
        assert grid.tolist() == [[True, False, True]]

    def test_empty_to_raster(self):
        grid, off = to_raster(EMPTY)
        assert grid.shape == (0, 0) and off == Point(0, 0)

    @given(images)
    def test_round_trip(self, a):
        assert from_raster(*to_raster(a)) == a

    @given(images)
    def test_to_raster_matches_pixels(self, a):
        # The oracles read images through to_raster, so it is checked
        # against a grid set pixel by pixel.
        assume(not a.is_empty)
        grid, off = to_raster(a)
        rect = bounding_rect(a)
        expected = np.zeros((rect.height, rect.width), dtype=bool)
        for p in a.pixels():
            expected[p.y - off.y, p.x - off.x] = True
        assert off == Point(rect.l, rect.t)
        assert grid.dtype == bool and np.array_equal(grid, expected)


def raster_by_pixel(grid, origin: Point) -> RleImage:
    """Reference for from_raster: one run per nonzero cell, merged by
    normalize.  The property tests build their images with from_raster, so
    they cannot catch a fault in it by themselves."""
    cells = np.argwhere(np.asarray(grid) != 0).tolist()
    return normalize([(x + origin.x, x + origin.x, y + origin.y) for y, x in cells])


def _last_cell(shape):
    g = np.zeros(shape, dtype=bool)
    g[-1, -1] = True
    return g


class TestFromRaster:
    @given(grids, points)
    def test_matches_pixel_runs(self, grid, origin):
        assert from_raster(grid, origin) == raster_by_pixel(grid, origin)

    @given(grids, points)
    def test_strided_views(self, grid, origin):
        for view in (grid[::2, 1:], grid[1:, ::-1], grid.T):
            assert from_raster(view, origin) == raster_by_pixel(view, origin)

    @pytest.mark.parametrize("grid", [
        np.ones((1, 9), dtype=bool),
        np.ones((9, 1), dtype=bool),
        np.ones((5, 6), dtype=bool),
        _last_cell((4, 7)),
        _last_cell((1, 1)),
        np.array([[0, 2, 3, 0], [5, 0, 0, -1]]),
        np.array([[0.0, 0.5], [np.nan, 0.0]]),
        [[1, 0, 1, 1], [0, 1, 1, 0]],
    ], ids=["1xn", "nx1", "all-true", "last-cell", "one-cell", "int", "float", "list"])
    @pytest.mark.parametrize("origin", [Point(0, 0), Point(-7, -3), Point(2**40, -(2**40))])
    def test_shapes_and_dtypes(self, grid, origin):
        assert from_raster(grid, origin) == raster_by_pixel(grid, origin)

    def test_many_row_blocks(self):
        # More cells than one block of rows holds, with runs at both ends of
        # every row, so that runs meet the edges of every block.
        grid = np.random.default_rng(7).random((300, 2000)) < 0.5
        grid[:, [0, -1]] = True
        assert from_raster(grid, Point(-3, 5)) == raster_by_pixel(grid, Point(-3, 5))
        assert from_raster(grid[::-1].T) == raster_by_pixel(grid[::-1].T, Point(0, 0))

    def test_memory_bounded_by_blocks(self):
        # A 2048 x 2048 grid is packed and decoded a block of rows at a
        # time, so the peak stays under a fifth of the grid's 4 MiB.
        blobs = blob_image(2048, 2048, seed=1)
        grid = np.zeros((2048, 2048), dtype=bool)
        cells, off = to_raster(blobs)
        grid[off.y : off.y + cells.shape[0], off.x : off.x + cells.shape[1]] = cells
        tracemalloc.start()
        try:
            image = from_raster(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert image == blobs
        assert peak < 0.75 * 2**20, peak

    @pytest.mark.parametrize("grid", [[True, False, True], np.zeros((2, 2, 2)), True])
    def test_rejects_non_2d(self, grid):
        with pytest.raises(ValueError, match=re.escape(f"2-D, got shape {np.shape(grid)}")):
            from_raster(grid)


class TestTranslateReflect:
    def test_translate_example(self):
        assert translate(img((0, 2, 0)), Point(3, 1)) == img((3, 5, 1))

    @given(images, points)
    def test_translate_inverse(self, a, v):
        assert translate(a, Point(0, 0)) == a
        assert translate(translate(a, v), Point(-v.x, -v.y)) == a

    def test_reflect_examples(self):
        assert reflect(img((0, 2, 0))) == img((-2, 0, 0))
        assert reflect(img((1, 1, -1), (0, 0, 1))) == img((0, 0, -1), (-1, -1, 1))

    @given(images)
    def test_reflect_involution(self, a):
        assert reflect(reflect(a)) == a

    @given(images)
    def test_reflect_is_pointwise_negation(self, a):
        assert reflect(a).pixel_set() == {(-x, -y) for x, y in a.pixel_set()}


class TestSetOps:
    def test_union_examples(self):
        assert union(img((0, 1, 0)), img((2, 3, 0))) == img((0, 3, 0))
        assert union(img((0, 4, 0)), img((2, 6, 0))) == img((0, 6, 0))

    def test_intersect_examples(self):
        assert intersect(img((0, 4, 0)), img((2, 6, 0))) == img((2, 4, 0))
        assert intersect(img((0, 1, 0)), img((3, 4, 0))) == EMPTY

    @given(images, images)
    def test_identity_laws(self, a, b):
        assert union(a, EMPTY) == a
        assert intersect(a, EMPTY) == EMPTY

    @given(images, images)
    def test_pixel_set_semantics(self, a, b):
        u = union(a, b)
        i = intersect(a, b)
        assert u.pixel_set() == a.pixel_set() | b.pixel_set()
        assert i.pixel_set() == a.pixel_set() & b.pixel_set()

    # Each image is moved next to a corner of the +-2**61 bound, its pixels
    # within 60 px of it: two images at one corner span a few pixels, at
    # opposite corners up to 2**62 columns or rows.
    corners = st.builds(lambda cx, cy, dx, dy: Point(cx * (2**61 - 30) + dx,
                                                     cy * (2**61 - 30) + dy),
                        st.sampled_from((-1, 1)), st.sampled_from((-1, 1)),
                        st.integers(-9, 9), st.integers(-9, 9))

    @settings(max_examples=300)
    @given(images, corners, images, corners)
    def test_pixel_sets_near_coordinate_bound(self, a, u, b, v):
        a, b = translate(a, u), translate(b, v)
        pa, pb = a.pixel_set(), b.pixel_set()
        mixed = np.concatenate((b.array, a.array[::-1]))
        assert normalize(mixed).pixel_set() == pa | pb
        assert union(a, b).pixel_set() == pa | pb
        assert intersect(a, b).pixel_set() == pa & pb

    @given(images, images, points)
    def test_translate_distributes(self, a, b, v):
        assert translate(union(a, b), v) == union(translate(a, v), translate(b, v))
        assert translate(intersect(a, b), v) == intersect(
            translate(a, v), translate(b, v)
        )

    @given(images, images)
    def test_reflect_distributes_over_union(self, a, b):
        assert reflect(union(a, b)) == union(reflect(a), reflect(b))


class TestComplement:
    def test_examples(self):
        rect = Rect(0, 4, 0, 0)
        assert complement_within(img((1, 2, 0)), rect) == img((0, 0, 0), (3, 4, 0))
        rect2 = Rect(0, 2, 0, 1)
        assert complement_within(EMPTY, rect2) == img((0, 2, 0), (0, 2, 1))

    @given(images)
    def test_double_complement(self, a):
        rect = Rect(-6, 6, -6, 6)
        assert complement_within(complement_within(a, rect), rect) == intersect(
            a, from_raster(np.ones((13, 13), dtype=bool), Point(-6, -6))
        )

    @given(images)
    def test_pixel_semantics(self, a):
        rect = Rect(-4, 7, -3, 8)
        c = complement_within(a, rect)
        box = {(x, y) for x in range(-4, 8) for y in range(-3, 9)}
        assert c.pixel_set() == box - a.pixel_set()

    @given(st.one_of(st.just(EMPTY), images), rects)
    @example(from_raster(np.ones((6, 6), dtype=bool)), Rect(1, 4, 1, 4))  # clipped on all sides
    @example(img((0, 3, 0), (6, 9, 0), (2, 7, 1)), Rect(2, 7, 0, 1))  # runs ending on its edges
    @example(img((0, 1, 0), (8, 9, 0), (0, 9, 5)), Rect(3, 6, -1, 2))  # no run meets it
    @example(EMPTY, Rect(-2, 3, 0, 4))
    @example(from_raster(np.ones((6, 6), dtype=bool)), Rect(-3, 8, 2, 2))  # one row
    @example(from_raster(np.ones((6, 6), dtype=bool)), Rect(2, 2, -3, 8))  # one column
    @example(img((0, 0, 0), (2, 2, 0)), Rect(1, 1, 0, 0))  # a one-pixel gap
    def test_matches_coverage_sweep(self, a, rect):
        assert complement_within(a, rect) == complement_within_by_coverage(a, rect)


def complement_within_by_coverage(img, rect):
    """Reference for complement_within: the coverage sweep it replaced.
    Each row of rect adds 1 from rect.l to rect.r and each run of img takes
    1 back over its pixels; the events, sorted by (y, x), are summed, and
    the pixels at level 1 or more form the result.  RleImage checks it."""
    ys = np.arange(rect.t, rect.b + 1)
    full = np.column_stack((np.full_like(ys, rect.l), np.full_like(ys, rect.r), ys))
    runs = np.concatenate((full, img.array))
    weights = np.concatenate((np.ones(len(ys), dtype=np.int64),
                              np.full(len(img), -1, dtype=np.int64)))
    xs = np.concatenate((runs[:, 0], runs[:, 1] + 1))
    ys = np.concatenate((runs[:, 2], runs[:, 2]))
    order = np.lexsort((xs, ys))
    xs, ys = xs[order], ys[order]
    level = np.cumsum(np.concatenate((weights, -weights))[order])
    last = np.ones(len(xs), dtype=bool)
    last[:-1] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    edge = np.flatnonzero(np.diff(level[last] >= 1, prepend=False))
    xs, ys = xs[last], ys[last]
    return RleImage(np.column_stack((xs[edge[0::2]], xs[edge[1::2]] - 1, ys[edge[0::2]])))


class TestBoundingRect:
    def test_examples(self):
        assert bounding_rect(img((1, 3, 0), (0, 0, 2))) == Rect(0, 3, 0, 2)
        assert bounding_rect(img((5, 5, 5))) == Rect(5, 5, 5, 5)
        assert bounding_rect(EMPTY) is None

    def test_degenerate_rect_rejected(self):
        with pytest.raises(ValueError):
            Rect(3, 1, 0, 0)

    def test_rect_area(self):
        assert Rect(0, 3, 0, 2).area == 12


def test_drop_short_runs():
    a = img((0, 4, 0), (0, 0, 1), (2, 3, 1))
    assert drop_short_runs(a, 2) == img((0, 4, 0), (2, 3, 1))
    assert drop_short_runs(a, 6) == EMPTY


def test_pixel_count():
    assert img((0, 4, 0), (2, 3, 1)).pixel_count() == 7
    assert EMPTY.pixel_count() == 0


def test_run_length():
    assert Run(2, 5, 7).length == 4
