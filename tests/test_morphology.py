"""Fast-path morphology: skeleton, tables, jump-scan erosion, dilation."""
import importlib.util
import random
import tracemalloc

import numpy as np
import pytest

from rlemorph import morphology
from rlemorph.generate import blob_image, diamond_se, random_image, square_se
from rlemorph.morphology import (
    EmptyStructuringElementError,
    ErodeTrace,
    build_tables,
    dilate,
    erode,
    erode_check_at,
    generate_skeleton,
)
from rlemorph.oracle import (
    dilate_naive,
    erode_naive,
    erode_runs,
    erosion_transform_naive,
    skeleton_naive,
)
from rlemorph.rle import (
    EMPTY,
    Point,
    Rect,
    RleImage,
    Run,
    bounding_rect,
    complement_within,
    drop_short_runs,
    normalize,
    reflect,
    translate,
)

from helpers import A, img, random_rle_image, random_se

SOLID_5 = img(*[(0, 4, y) for y in range(5)])
SQUARE_3_CENTERED = img((-1, 1, -1), (-1, 1, 0), (-1, 1, 1))


class TestGenerateSkeleton:
    def test_3x3_square_at_corner(self):
        skel = generate_skeleton(img((0, 2, 0), (0, 2, 1), (0, 2, 2)))
        assert skel.anchor_q == Point(2, 0)
        assert skel.entries == (
            (Point(0, 0), 3),
            (Point(0, 1), 3),
            (Point(0, 2), 3),
        )
        assert skel.l_min == skel.l_max == 3

    def test_single_pixel(self):
        skel = generate_skeleton(img((0, 0, 0)))
        assert skel.anchor_q == Point(0, 0)
        assert skel.entries == ((Point(0, 0), 1),)
        assert skel.l_min == skel.l_max == 1

    def test_two_runs(self):
        skel = generate_skeleton(img((0, 4, 0), (1, 2, 1)))
        assert skel.anchor_q == Point(4, 0)
        assert skel.entries == ((Point(0, 0), 5), (Point(-2, 1), 2))
        assert skel.l_min == 2 and skel.l_max == 5

    def test_anchor_tie_break_takes_first_longest(self):
        skel = generate_skeleton(img((0, 2, 0), (5, 7, 0), (0, 2, 1)))
        assert skel.anchor_q == Point(2, 0)

    def test_empty_se_rejected(self):
        with pytest.raises(EmptyStructuringElementError):
            generate_skeleton(EMPTY)

    def test_origin_entry_has_max_depth(self):
        rng = random.Random(10)
        for _ in range(50):
            se = random_se(rng)
            skel = generate_skeleton(se)
            origin_entries = [d for s, d in skel.entries if s == Point(0, 0)]
            assert origin_entries == [skel.l_max]
            assert skel.l_min == min(d for _, d in skel.entries)

    def test_entries_satisfy_skeleton_inequality(self):
        # every entry of the table is a skeleton point of the translated
        # element under the naive transform
        rng = random.Random(11)
        for _ in range(30):
            se = random_se(rng, 7)
            skel = generate_skeleton(se)
            q = skel.anchor_q
            moved = translate(se, Point(-q.x, -q.y))
            naive = skeleton_naive(moved, A)
            f = erosion_transform_naive(moved, A)
            points = {s for s, _ in skel.entries}
            assert points <= naive
            # entry set is exactly the rightmost-of-run points, and depths
            # equal the transform values there
            assert points == {Point(r.rx, r.y) for r in moved.runs}
            for s, depth in skel.entries:
                assert f[s] == depth


class TestBuildTables:
    def test_single_run(self):
        t = build_tables(img((2, 5, 7)), 1, 1)
        assert [t.distances(px, 7) for px in range(2, 6)] == [(1, 4), (2, 3), (3, 2), (4, 1)]
        assert t.x_cut == img((2, 5, 7))

    def test_short_run_zeroed_and_cut(self):
        t = build_tables(img((0, 9, 0), (0, 1, 1)), 3, 3)
        assert all(t.distances(px, 1) == (0, 0) for px in range(-1, 11))
        assert t.x_cut == img((2, 9, 0))

    def test_empty_image(self):
        t = build_tables(EMPTY, 2, 3)
        assert t.left.size == 0 and t.right.size == 0 and t.x_cut == EMPTY

    def test_zero_margin(self):
        # one pixel outside the box (0..3, 0..0) on every side
        t = build_tables(img((0, 3, 0)), 1, 1)
        assert all(t.distances(px, py) == (0, 0) for px in range(-1, 5) for py in (-1, 1))
        assert all(t.distances(px, py) == (0, 0) for px in (-1, 4) for py in (-1, 0, 1))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            build_tables(SOLID_5, 3, 2)
        with pytest.raises(ValueError):
            build_tables(SOLID_5, 0, 2)

    def test_left_right_sum_invariant(self):
        rng = random.Random(12)
        for _ in range(30):
            x = random_rle_image(rng, 24, 24)
            l_min = rng.randint(1, 4)
            l_max = l_min + rng.randint(0, 3)
            t = build_tables(x, l_min, l_max)
            for run in x.runs:
                for i, px in enumerate(range(run.lx, run.rx + 1)):
                    left, right = t.distances(px, run.y)
                    if run.length >= l_min:
                        assert left == i + 1
                        assert right == run.length - i
                        assert left + right == run.length + 1
                    else:
                        assert left == 0 and right == 0

    def test_transform_recurrences(self):
        # left(h) = left(h - (1,0)) + 1 and right(h) = right(h + (1,0)) + 1
        # at every in-run pixel whose neighbour is in the same image
        rng = random.Random(13)
        for _ in range(20):
            x = random_rle_image(rng, 24, 24)
            t = build_tables(x, 1, 1)
            pixels = x.pixel_set()
            for px, py in pixels:
                if (px - 1, py) in pixels:
                    assert t.distances(px, py)[0] == t.distances(px - 1, py)[0] + 1
                if (px + 1, py) in pixels:
                    assert t.distances(px, py)[1] == t.distances(px + 1, py)[1] + 1

    def test_x_cut_matches_naive_transform(self):
        # table values agree with the naive erosion transform of the
        # short-run-filtered image
        rng = random.Random(14)
        for _ in range(10):
            x = random_rle_image(rng, 16, 16)
            l_min = rng.randint(1, 3)
            t = build_tables(x, l_min, l_min)
            kept = drop_short_runs(x, l_min)
            if kept.is_empty:
                continue
            f = erosion_transform_naive(kept, A)
            for p, v in f.items():
                assert t.distances(p.x, p.y)[0] == v


class TestErode:
    def test_solid_5x5_by_centered_3x3(self):
        assert erode(SOLID_5, SQUARE_3_CENTERED) == img(
            (1, 3, 1), (1, 3, 2), (1, 3, 3)
        )

    def test_identity_se(self):
        rng = random.Random(15)
        for _ in range(20):
            x = random_rle_image(rng, 24, 24)
            assert erode(x, img((0, 0, 0))) == x

    def test_interval(self):
        assert erode(img((0, 9, 0)), img((0, 2, 0))) == img((0, 7, 0))

    def test_unsupported_second_row_gives_empty(self):
        assert erode(img((0, 9, 0)), img((0, 2, 0), (0, 2, 1))) == EMPTY

    def test_empty_inputs(self):
        assert erode(EMPTY, SQUARE_3_CENTERED) == EMPTY
        with pytest.raises(EmptyStructuringElementError):
            erode(SOLID_5, EMPTY)

    def test_matches_oracles_randomized(self):
        rng = random.Random(16)
        for _ in range(150):
            x = random_rle_image(rng, 48, 48)
            se = random_se(rng)
            expected = erode_naive(x, se)
            got = erode(x, se)
            assert got == expected
            assert erode_runs(x, se) == expected

    def test_translation_law(self):
        rng = random.Random(17)
        for _ in range(40):
            x = random_rle_image(rng, 32, 32)
            se = random_se(rng)
            v = Point(rng.randint(-10, 10), rng.randint(-10, 10))
            assert erode(x, translate(se, v)) == translate(
                erode(x, se), Point(-v.x, -v.y)
            )

    def test_short_run_removal_law(self):
        rng = random.Random(18)
        for _ in range(40):
            x = random_rle_image(rng, 32, 32)
            se = random_se(rng)
            l_min = generate_skeleton(se).l_min
            assert erode(x, se) == erode(drop_short_runs(x, l_min), se)

    def test_anti_extensive_with_origin(self):
        rng = random.Random(19)
        for _ in range(30):
            x = random_rle_image(rng, 24, 24)
            se = random_se(rng)
            if Point(0, 0) not in se.pixel_set():
                se = normalize(list(se.runs) + [(0, 0, 0)])
            assert erode(x, se).pixel_set() <= x.pixel_set()


class TestMalformedInput:
    """Runs that are not in compact form are rejected, not eroded wrongly."""

    def test_overlapping_runs_rejected(self):
        # eroded by a run of length 5 this once gave (2, 2, 0) without error
        with pytest.raises(ValueError, match="runs overlap or touch"):
            x = RleImage((Run(0, 3, 0), Run(2, 6, 0)))
            erode(x, img((0, 4, 0)))

    @pytest.mark.parametrize("op", [erode, dilate])
    @pytest.mark.parametrize("runs, message", [
        ((Run(5, 6, 0), Run(0, 2, 0)), "runs out of order"),
        ((Run(0, 2, 1), Run(0, 2, 0)), "runs out of order"),
        ((Run(0, 2, 0), Run(3, 4, 0)), "runs overlap or touch"),
        ((Run(0, 2, 0), Run(4, 3, 1)), "lx > rx"),
    ], ids=["unsorted-row", "unsorted-rows", "touching", "reversed"])
    def test_rejected(self, op, runs, message):
        with pytest.raises(ValueError, match=message):
            op(RleImage(runs), SQUARE_3_CENTERED)

    @pytest.mark.parametrize("runs, message", [
        ((Run(0, 3, 0), Run(2, 6, 0)), r"runs overlap or touch: Run\(lx=0, rx=3, y=0\) "
                                       r"and Run\(lx=2, rx=6, y=0\)"),
        ((Run(5, 6, 0), Run(0, 2, 0)), r"runs out of order: Run\(lx=5, rx=6, y=0\) "
                                       r"then Run\(lx=0, rx=2, y=0\)"),
        ((Run(0, 2, 1), Run(0, 2, 0)), "runs out of order"),
        ((Run(0, 2, 0), Run(3, 4, 0)), "runs overlap or touch"),
        ((Run(0, 2, 0), Run(4, 3, 1)), r"malformed run Run\(lx=4, rx=3, y=1\): lx > rx"),
        (((0, 1),), "n rows of"),
        (np.zeros((2, 4)), "n rows of"),
        ((1, 2, 3), "n rows of"),
    ], ids=["overlapping", "unsorted-row", "unsorted-rows", "touching", "reversed",
            "short-row", "wide-array", "flat"])
    def test_constructor_rejects(self, runs, message):
        with pytest.raises(ValueError, match=message):
            RleImage(runs)

    @pytest.mark.parametrize("runs, message", [
        # dilate once failed on these with "degenerate rectangle" and
        # "need 1 <= l_min <= l_max, got 0, 3"
        ((Run(0, 2, 1), Run(0, 2, 0)), "runs out of order"),
        ((Run(0, 2, 0), Run(3, 2, 1)), "lx > rx"),
    ], ids=["unsorted-rows", "reversed"])
    @pytest.mark.parametrize("op", [erode, dilate])
    def test_element_rejected(self, op, runs, message):
        with pytest.raises(ValueError, match=message):
            op(SQUARE_3_CENTERED, RleImage(runs))


class TestErodeInstrumented:
    def test_candidates_within_x_cut(self):
        rng = random.Random(20)
        for _ in range(40):
            x = random_rle_image(rng, 32, 32)
            se = random_se(rng)
            trace = ErodeTrace()
            erode(x, se, trace)
            skel = generate_skeleton(se)
            cut = build_tables(x, skel.l_min, skel.l_max).x_cut
            cut_pixels = cut.pixel_set()
            assert trace.candidates <= cut.pixel_count()
            assert all(p in cut_pixels for p in trace.candidate_positions)
            # no candidate among the first l_max - 1 pixels of any run
            for px, py in trace.candidate_positions:
                run = next(
                    r for r in x.runs if r.y == py and r.lx <= px <= r.rx
                )
                assert px >= run.lx + skel.l_max - 1

    def test_solid_5x5_candidate_count(self):
        trace = ErodeTrace()
        erode(SOLID_5, img((0, 2, 0), (0, 2, 1), (0, 2, 2)), trace)
        skel = generate_skeleton(img((0, 2, 0), (0, 2, 1), (0, 2, 2)))
        cut = build_tables(SOLID_5, skel.l_min, skel.l_max).x_cut
        assert cut.pixel_count() == 15  # 25 pixels minus (3-1) per surviving row
        assert trace.candidates <= 15

    def test_jump_miss_soundness(self):
        # every position skipped by a jump is a genuine miss
        rng = random.Random(21)
        for _ in range(40):
            x = random_rle_image(rng, 24, 24)
            se = random_se(rng, 7)
            skel = generate_skeleton(se)
            q = skel.anchor_q
            trace = ErodeTrace()
            erode(x, se, trace)
            anchored_hits = erode_naive(
                x, translate(se, Point(-q.x, -q.y))
            ).pixel_set()
            for jx, jy, k in trace.jumps:
                for i in range(k):
                    assert (jx + i, jy) not in anchored_hits

    def test_jump_hit_maximality(self):
        # the pixel immediately after an emitted run is a miss
        rng = random.Random(22)
        for _ in range(40):
            x = random_rle_image(rng, 24, 24)
            se = random_se(rng, 7)
            skel = generate_skeleton(se)
            q = skel.anchor_q
            trace = ErodeTrace()
            erode(x, se, trace)
            anchored_hits = erode_naive(
                x, translate(se, Point(-q.x, -q.y))
            ).pixel_set()
            for hx, hy, n in trace.hits:
                assert all((hx + i, hy) in anchored_hits for i in range(n))
                assert (hx + n, hy) not in anchored_hits

    def test_probe_count_bound(self):
        rng = random.Random(23)
        for _ in range(40):
            x = random_rle_image(rng, 32, 32)
            se = random_se(rng)
            skel = generate_skeleton(se)
            cut = build_tables(x, skel.l_min, skel.l_max).x_cut
            trace = ErodeTrace()
            erode(x, se, trace)
            assert trace.probes <= cut.pixel_count() * len(skel.entries)


class TestScanKernel:
    """The one jump-scan kernel serves both traced and untraced erosion."""

    def test_traced_untraced_and_oracle_agree(self):
        rng = random.Random(24)
        for _ in range(200):
            x = random_rle_image(rng, 40, 40)
            se = random_se(rng)
            trace = ErodeTrace()
            traced = erode(x, se, trace)
            assert traced == erode(x, se) == erode_naive(x, se)
            q = generate_skeleton(se).anchor_q
            assert [(lx + q.x, y + q.y, rx - lx + 1) for lx, rx, y in traced.runs] == trace.hits

    # (candidates, probes, jumps, hits) of the jump scan on fixed cases, as
    # counted by the former Python-only traced scan.
    @pytest.mark.parametrize("x, se, counts", [
        pytest.param(SOLID_5, square_se(3), (5, 14, 2, 3), id="solid5-square3"),
        pytest.param(blob_image(128, 96, blobs=12, seed=3), diamond_se(7),
                     (703, 1803, 558, 145), id="blob-diamond7"),
        pytest.param(blob_image(160, 160, blobs=20, seed=5), square_se(11),
                     (741, 5710, 419, 322), id="blob-square11"),
        pytest.param(random_image(48, 40, 0.7, seed=2), square_se(3),
                     (335, 760, 283, 52), id="random-square3"),
        pytest.param(blob_image(96, 96, blobs=10, seed=8),
                     img((0, 4, 0), (2, 2, 3), (-3, -1, 5)),
                     (595, 1107, 467, 128), id="blob-three-runs"),
    ])
    def test_counts_pinned(self, x, se, counts):
        trace = ErodeTrace()
        erode(x, se, trace)
        assert (trace.candidates, trace.probes, len(trace.jumps), len(trace.hits)) == counts
        assert len(trace.candidate_positions) == trace.candidates

    @pytest.mark.parametrize("v", [Point(2**40, -(2**40)), Point(-(2**40) + 7, 2**40 - 3)],
                             ids=["far-right-up", "far-left-down"])
    @pytest.mark.parametrize("se", [square_se(5), diamond_se(7),
                                    img((0, 4, 0), (2, 2, 3), (-3, -1, 5))],
                             ids=["square5", "diamond7", "three-runs"])
    def test_huge_coordinates(self, v, se):
        # The kernel's arithmetic must agree on Python ints and int64 far
        # from the origin, and stay clear of its 1 << 60 sentinel.
        x = blob_image(64, 48, blobs=6, seed=11)
        far = translate(x, v)
        near_trace, far_trace = ErodeTrace(), ErodeTrace()
        assert erode(far, se) == translate(erode(x, se), v)
        assert erode(far, se, far_trace) == translate(erode(x, se, near_trace), v)
        assert (far_trace.candidates, far_trace.probes, len(far_trace.jumps)) == \
            (near_trace.candidates, near_trace.probes, len(near_trace.jumps))
        assert dilate(far, se) == translate(dilate(x, se), v)

    def test_backend_reported(self):
        expected = "numba" if importlib.util.find_spec("numba") else "python"
        assert morphology.BACKEND == expected


class TestMemoryBoundedByRuns:
    """Memory follows the runs, not the bounding box: two 10x3 blocks at
    (0, 0) and (s, s) have 6 runs and an s x s box."""

    @pytest.mark.parametrize("op", [erode, dilate])
    def test_sparse_wide_peak(self, op):
        s = 8000
        block = [(0, 9, y) for y in range(3)]
        x = img(*block, *[(lx + s, rx + s, y + s) for lx, rx, y in block])
        se = square_se(3)
        tracemalloc.start()
        try:
            op(x, se)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20


class TestErodeCheckAt:
    def test_solid_case(self):
        se = img((0, 2, 0), (0, 2, 1), (0, 2, 2))
        skel = generate_skeleton(se)
        tables = build_tables(SOLID_5, skel.l_min, skel.l_max)
        assert erode_check_at(tables, skel, Point(4, 1))
        assert not erode_check_at(tables, skel, Point(0, 0))

    def test_outside_probe_is_false(self):
        se = img((0, 2, 0))
        skel = generate_skeleton(se)
        tables = build_tables(SOLID_5, skel.l_min, skel.l_max)
        assert not erode_check_at(tables, skel, Point(50, 50))

    def test_single_pixel_se_membership(self):
        se = img((0, 0, 0))
        skel = generate_skeleton(se)
        rng = random.Random(24)
        for _ in range(10):
            x = random_rle_image(rng, 16, 16)
            tables = build_tables(x, 1, 1)
            pixels = x.pixel_set()
            for _ in range(20):
                h = Point(rng.randint(-10, 20), rng.randint(-10, 20))
                assert erode_check_at(tables, skel, h) == (h in pixels)

    def test_equivalent_to_subset_test(self):
        rng = random.Random(25)
        for _ in range(30):
            x = random_rle_image(rng, 20, 20)
            se = random_se(rng, 6)
            skel = generate_skeleton(se)
            q = skel.anchor_q
            tables = build_tables(x, skel.l_min, skel.l_max)
            anchored = translate(se, Point(-q.x, -q.y))
            kept = drop_short_runs(x, skel.l_min).pixel_set()
            for _ in range(10):
                h = Point(rng.randint(-12, 24), rng.randint(-12, 24))
                fits = all(
                    (h.x + p.x, h.y + p.y) in kept for p in anchored.pixels()
                )
                assert erode_check_at(tables, skel, h) == fits


class TestDilate:
    def test_single_pixel_by_centered_3x3(self):
        assert dilate(img((0, 0, 0)), SQUARE_3_CENTERED) == SQUARE_3_CENTERED

    def test_two_pixels(self):
        assert dilate(img((0, 0, 0), (4, 4, 0)), img((0, 1, 0))) == img(
            (0, 1, 0), (4, 5, 0)
        )

    def test_identity_se(self):
        rng = random.Random(26)
        for _ in range(20):
            x = random_rle_image(rng, 24, 24)
            assert dilate(x, img((0, 0, 0))) == x

    def test_empty_inputs(self):
        assert dilate(EMPTY, SQUARE_3_CENTERED) == EMPTY
        with pytest.raises(EmptyStructuringElementError):
            dilate(SOLID_5, EMPTY)

    def test_matches_oracle_randomized(self):
        rng = random.Random(27)
        for _ in range(150):
            x = random_rle_image(rng, 48, 48)
            se = random_se(rng)
            got = dilate(x, se)
            assert got == dilate_naive(x, se)

    def test_se_far_from_origin(self):
        # dilation commutes with SE translation
        rng = random.Random(28)
        for _ in range(20):
            x = random_rle_image(rng, 24, 24)
            se = random_se(rng)
            v = Point(rng.randint(-60, 60), rng.randint(-60, 60))
            moved = translate(se, v)
            assert dilate(x, moved) == translate(dilate(x, se), v)

    def test_box_excludes_origin(self):
        # The complement rectangles follow the two bounding boxes, wherever
        # they lie; checked against the definition, not against dilate.
        rng = random.Random(31)
        for _ in range(30):
            x = random_rle_image(rng, 24, 24)
            v = Point(rng.randint(-60, 60), rng.randint(-60, 60))
            se = translate(random_se(rng), v)
            assert dilate(x, se) == dilate_naive(x, se)
        x = random_rle_image(random.Random(32), 24, 24)
        for se in (img((5, 5, -3)), img((40, 45, -20), (40, 40, -19))):
            assert dilate(x, se) == dilate_naive(x, se)
        solid = img(*[(0, 4, y) for y in range(3)])
        assert dilate(solid, img((5, 5, -3))) == dilate_naive(solid, img((5, 5, -3)))

    def test_extensive_with_origin(self):
        rng = random.Random(29)
        for _ in range(30):
            x = random_rle_image(rng, 24, 24)
            from rlemorph.rle import normalize

            se = normalize(tuple(random_se(rng).runs) + (Run(0, 0, 0),))
            assert x.pixel_set() <= dilate(x, se).pixel_set()

    def test_matches_complement_construction(self):
        # for elements whose box straddles the origin the plain
        # complement-erode-complement assembly gives the same answer
        rng = random.Random(30)
        for _ in range(30):
            x = random_rle_image(rng, 24, 24)
            se = random_se(rng)
            sb = bounding_rect(se)
            if not (sb.l <= 0 <= sb.r and sb.t <= 0 <= sb.b):
                continue
            rb = bounding_rect(x)
            if rb is None:
                continue
            rec_dil = rb.grown(sb.width, sb.height)
            rec_ero = rb.grown(2 * sb.width, 2 * sb.height)
            manual = complement_within(
                erode(complement_within(x, rec_ero), reflect(se)), rec_dil
            )
            assert dilate(x, se) == manual
