"""Reference implementations: definitional operators, run decomposition,
erosion transform and skeleton."""
import random

import pytest

from rlemorph.oracle import (
    dilate_naive,
    erode_naive,
    erode_runs,
    erosion_transform_naive,
    skeleton_naive,
)
from rlemorph.morphology import EmptyStructuringElementError
from rlemorph.rle import EMPTY, Point, normalize, reflect

from helpers import A, img, random_rle_image, random_se

A_T = reflect(A)


SOLID_5 = img(*[(0, 4, y) for y in range(5)])
SQUARE_3_CENTERED = img((-1, 1, -1), (-1, 1, 0), (-1, 1, 1))


class TestErodeNaive:
    def test_solid_5x5_by_centered_3x3(self):
        assert erode_naive(SOLID_5, SQUARE_3_CENTERED) == img(
            (1, 3, 1), (1, 3, 2), (1, 3, 3)
        )

    def test_identity_se(self):
        rng = random.Random(0)
        for _ in range(20):
            x = random_rle_image(rng, 20, 20)
            assert erode_naive(x, img((0, 0, 0))) == x

    def test_too_small_input_gives_empty(self):
        assert erode_naive(img((0, 1, 0)), img((0, 4, 0))) == EMPTY

    def test_empty_se_rejected(self):
        with pytest.raises(EmptyStructuringElementError):
            erode_naive(SOLID_5, EMPTY)


class TestDilateNaive:
    def test_single_pixel_gives_se(self):
        rng = random.Random(1)
        for _ in range(20):
            se = random_se(rng)
            assert dilate_naive(img((0, 0, 0)), se) == se

    def test_identity_se(self):
        rng = random.Random(2)
        for _ in range(20):
            x = random_rle_image(rng, 20, 20)
            assert dilate_naive(x, img((0, 0, 0))) == x

    def test_two_distant_pixels(self):
        assert dilate_naive(img((0, 0, 0), (9, 9, 0)), img((0, 1, 0))) == img(
            (0, 1, 0), (9, 10, 0)
        )


class TestErodeRuns:
    def test_solid_case(self):
        assert erode_runs(SOLID_5, SQUARE_3_CENTERED) == erode_naive(
            SOLID_5, SQUARE_3_CENTERED
        )

    def test_single_run_se_matches_naive(self):
        rng = random.Random(3)
        for _ in range(50):
            x = random_rle_image(rng, 24, 24)
            lx = rng.randint(-3, 0)
            se = img((lx, lx + rng.randint(0, 4), rng.randint(-2, 2)))
            assert erode_runs(x, se) == erode_naive(x, se)

    def test_cross_oracle_agreement(self):
        rng = random.Random(4)
        for _ in range(100):
            x = random_rle_image(rng, 32, 32)
            se = random_se(rng)
            assert erode_runs(x, se) == erode_naive(x, se)


class TestErosionTransform:
    def test_left_distance(self):
        f = erosion_transform_naive(img((2, 5, 7)), A)
        assert [f[Point(x, 7)] for x in range(2, 6)] == [1, 2, 3, 4]

    def test_right_distance(self):
        f = erosion_transform_naive(img((2, 5, 7)), A_T)
        assert [f[Point(x, 7)] for x in range(2, 6)] == [4, 3, 2, 1]

    def test_zero_outside(self):
        f = erosion_transform_naive(img((2, 5, 7)), A)
        assert f.get(Point(1, 7), 0) == 0
        assert f.get(Point(6, 7), 0) == 0

    def test_left_to_right_increment_on_runs(self):
        rng = random.Random(5)
        for _ in range(20):
            x = random_rle_image(rng, 24, 24)
            f = erosion_transform_naive(x, A)
            for run in x.runs:
                for i, px in enumerate(range(run.lx, run.rx + 1)):
                    assert f[Point(px, run.y)] == i + 1

    def test_requires_origin(self):
        with pytest.raises(ValueError):
            erosion_transform_naive(SOLID_5, img((-2, -1, 0)))


class TestSkeletonNaive:
    def test_single_run(self):
        assert skeleton_naive(img((0, 2, 0)), A) == {Point(2, 0)}

    def test_square_rightmost_column(self):
        sq = img((0, 2, 0), (0, 2, 1), (0, 2, 2))
        assert skeleton_naive(sq, A) == {Point(2, 0), Point(2, 1), Point(2, 2)}

    def test_single_pixel(self):
        assert skeleton_naive(img((4, 4, -2)), A) == {Point(4, -2)}

    def test_equals_rightmost_of_run_pixels(self):
        rng = random.Random(6)
        for _ in range(20):
            b = random_rle_image(rng, 16, 16)
            if b.is_empty:
                continue
            rightmost = {Point(r.rx, r.y) for r in b.runs}
            assert skeleton_naive(b, A) & rightmost == rightmost
            # for the horizontal jump set the skeleton is exactly those pixels
            assert skeleton_naive(b, A) == rightmost


class TestMembershipEquivalence:
    def test_membership_iff_skeleton_probe(self):
        # erosion membership at h is equivalent to the naive-transform
        # comparison at every skeleton point
        rng = random.Random(7)
        checked = 0
        while checked < 300:
            x = random_rle_image(rng, 20, 20)
            b = random_se(rng, 6)
            fb = erosion_transform_naive(b, A)
            fx = erosion_transform_naive(x, A)
            skel = skeleton_naive(b, A)
            eroded = erode_naive(x, b).pixel_set()
            for _ in range(5):
                h = Point(rng.randint(-12, 12), rng.randint(-12, 12))
                probe_ok = all(
                    fb[s] <= fx.get(Point(h.x + s.x, h.y + s.y), 0) for s in skel
                )
                assert probe_ok == (h in eroded)
                checked += 1
