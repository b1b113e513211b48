"""Core RLE representation: construction, transforms, set operations."""
import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

from helpers import img

grids = hnp.arrays(
    dtype=bool,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.booleans(),
)
points = st.builds(Point, st.integers(-10, 10), st.integers(-10, 10))
images = st.builds(from_raster, grids, points)


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
