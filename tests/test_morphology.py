"""Fast-path morphology: skeleton, tables, jump-scan erosion, dilation."""
import bisect
import random
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlemorph import morphology
from rlemorph.bench import load_image_source
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
    _BLOCK_BYTES,
    bounding_rect,
    complement_within,
    drop_short_runs,
    from_raster,
    intersect,
    normalize,
    reflect,
    translate,
)

from helpers import (A, grids, images, img, points, random_rle_image, random_se, rects,
                     trimmed_tables)

SOLID_5 = img(*[(0, 4, y) for y in range(5)])
SQUARE_3_CENTERED = img((-1, 1, -1), (-1, 1, 0), (-1, 1, 1))


class TestGenerateSkeleton:
    def test_3x3_square_at_corner(self):
        skel = generate_skeleton(img((0, 2, 0), (0, 2, 1), (0, 2, 2)))
        assert skel.anchor_q == Point(2, 0)
        assert skel.entries.tolist() == [
            [0, 0, 3],
            [0, 1, 3],
            [0, 2, 3],
        ]
        assert skel.entries.dtype == np.int64 and skel.entries.shape == (3, 3)
        with pytest.raises(ValueError):
            skel.entries[0, 2] = 1
        assert skel.l_min == skel.l_max == 3

    def test_single_pixel(self):
        skel = generate_skeleton(img((0, 0, 0)))
        assert skel.anchor_q == Point(0, 0)
        assert skel.entries.tolist() == [[0, 0, 1]]
        assert skel.l_min == skel.l_max == 1

    def test_two_runs(self):
        skel = generate_skeleton(img((0, 4, 0), (1, 2, 1)))
        assert skel.anchor_q == Point(4, 0)
        assert skel.entries.tolist() == [[0, 0, 5], [-2, 1, 2]]
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
            origin_entries = [d for sx, sy, d in skel.entries.tolist() if (sx, sy) == (0, 0)]
            assert origin_entries == [skel.l_max]
            assert skel.l_min == min(d for _, _, d in skel.entries.tolist())

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
            points = {Point(sx, sy) for sx, sy, _ in skel.entries.tolist()}
            assert points <= naive
            # entry set is exactly the rightmost-of-run points, and depths
            # equal the transform values there
            assert points == {Point(r.rx, r.y) for r in moved.runs}
            for sx, sy, depth in skel.entries.tolist():
                assert f[Point(sx, sy)] == depth


class TestBuildTables:
    def test_single_run(self):
        t = trimmed_tables(img((2, 5, 7)), 1, 1)
        assert [t.distances(px, 7) for px in range(2, 6)] == [(1, 4), (2, 3), (3, 2), (4, 1)]
        assert t.x_cut == img((2, 5, 7))

    def test_short_run_zeroed_and_cut(self):
        t = trimmed_tables(img((0, 9, 0), (0, 1, 1)), 3, 3)
        assert all(t.distances(px, 1) == (0, 0) for px in range(-1, 11))
        assert t.x_cut == img((2, 9, 0))

    def test_empty_image(self):
        t = trimmed_tables(EMPTY, 2, 3)
        assert t.left.size == 0 and t.right.size == 0 and t.x_cut == EMPTY

    def test_zero_margin(self):
        # one pixel outside the box (0..3, 0..0) on every side
        t = trimmed_tables(img((0, 3, 0)), 1, 1)
        assert all(t.distances(px, py) == (0, 0) for px in range(-1, 5) for py in (-1, 1))
        assert all(t.distances(px, py) == (0, 0) for px in (-1, 4) for py in (-1, 0, 1))

    def test_compared_and_hashed_by_identity(self):
        # Generated __eq__/__hash__ over ndarray fields would raise here.
        skel, other = generate_skeleton(square_se(3)), generate_skeleton(square_se(3))
        tables = build_tables(SOLID_5, skel)
        assert skel == skel and skel != other
        assert tables == tables and tables != build_tables(SOLID_5, skel)
        assert len({skel, other, tables}) == 3

    def test_left_right_sum_invariant(self):
        rng = random.Random(12)
        for _ in range(30):
            x = random_rle_image(rng, 24, 24)
            l_min = rng.randint(1, 4)
            l_max = l_min + rng.randint(0, 3)
            t = trimmed_tables(x, l_min, l_max)
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
            t = trimmed_tables(x, 1, 1)
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
            t = trimmed_tables(x, l_min, l_min)
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


class TestCoordinateBound:
    """A result with a coordinate beyond +-2**61 is refused, naming the run."""

    def test_erosion_leaving_the_bound(self):
        with pytest.raises(ValueError, match="beyond"):
            erode(img((2**61 - 3, 2**61, 0)), img((-(2**61), -(2**61), 0)))

    def test_dilation_leaving_the_bound(self):
        # The dilation of the pixel at 2**61 - 1 reaches 2**61 + 1.
        with pytest.raises(ValueError, match="beyond"):
            dilate(img((2**61 - 1, 2**61 - 1, 0)), square_se(5))
        # At 2**61 - 3 it ends at 2**61 - 1 and fits, although the
        # complement rectangle around x's box would reach 2**61 + 1.
        assert dilate(img((2**61 - 3, 2**61 - 3, 0)), square_se(5)) == \
            img(*[(2**61 - 5, 2**61 - 1, y) for y in range(-2, 3)])

    @pytest.mark.parametrize("x, se, expected", [
        (img((-10, 2**61 - 5, 0)), square_se(3), img(*[(-11, 2**61 - 4, y) for y in (-1, 0, 1)])),
        (img((-(2**61), -(2**61) + 10, 0)), img((2**61, 2**61, 0)), img((0, 10, 0))),
    ], ids=["wide-image", "far-element"])
    def test_dilation_inside_the_bound(self, x, se, expected):
        # The rectangles of these fitting dilations stay inside the bound
        # where the boxes lie, but not where x's box starts at the origin.
        assert dilate(x, se) == expected


def assert_compact(out):
    """out holds a read-only C-ordered int64 array that passes the full
    check of the constructor, which the library skips for runs it builds."""
    a = out.array
    assert a.dtype == np.int64 and a.flags.c_contiguous and not a.flags.writeable
    assert RleImage(a) == out


class TestBuiltRunsAreCompact:
    @given(images, images.filter(lambda se: not se.is_empty))
    def test_erode_and_dilate(self, x, se):
        skel = generate_skeleton(se)
        assert_compact(build_tables(x, skel).x_cut)
        assert_compact(erode(x, se))
        assert_compact(dilate(x, se))

    @given(images, images, rects)
    def test_complement_and_intersect(self, a, b, rect):
        assert_compact(complement_within(a, rect))
        assert_compact(intersect(a, b))

    @given(st.lists(st.tuples(st.integers(-12, 12), st.integers(0, 6), st.integers(-6, 6))))
    def test_normalize(self, triples):
        assert_compact(normalize([(lx, lx + n, y) for lx, n, y in triples]))

    @given(grids, points)
    def test_from_raster(self, grid, origin):
        assert_compact(from_raster(grid, origin))
        assert_compact(from_raster(grid.T[::-1], origin))

    @given(images, points, st.integers(1, 6))
    def test_translate_reflect_drop_short_runs(self, a, v, min_length):
        assert_compact(translate(a, v))
        assert_compact(reflect(a))
        assert_compact(drop_short_runs(a, min_length))


class TestErodeInstrumented:
    def test_candidates_within_x_cut(self):
        rng = random.Random(20)
        for _ in range(40):
            x = random_rle_image(rng, 32, 32)
            se = random_se(rng)
            trace = ErodeTrace()
            erode(x, se, trace)
            skel = generate_skeleton(se)
            cut = build_tables(x, skel).x_cut
            cut_pixels = cut.pixel_set()
            positions = np.concatenate((trace.jumps[:, :2], trace.hits[:, :2]))
            assert trace.candidates <= cut.pixel_count()
            assert all(tuple(p) in cut_pixels for p in positions.tolist())
            # no candidate among the first l_max - 1 pixels of any run
            for px, py in positions:
                run = next(
                    r for r in x.runs if r.y == py and r.lx <= px <= r.rx
                )
                assert px >= run.lx + skel.l_max - 1

    def test_solid_5x5_candidate_count(self):
        trace = ErodeTrace()
        erode(SOLID_5, img((0, 2, 0), (0, 2, 1), (0, 2, 2)), trace)
        skel = generate_skeleton(img((0, 2, 0), (0, 2, 1), (0, 2, 2)))
        cut = build_tables(SOLID_5, skel).x_cut
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
            cut = build_tables(x, skel).x_cut
            trace = ErodeTrace()
            erode(x, se, trace)
            assert trace.probes <= cut.pixel_count() * len(skel.entries)


class TestTraceArrays:
    """A trace holds its events as (n, 3) int64 arrays."""

    def test_int64_rows_of_three(self):
        trace, empty = ErodeTrace(), ErodeTrace()
        erode(blob_image(96, 96, blobs=10, seed=8), diamond_se(7), trace)
        erode(SOLID_5, square_se(7), empty)  # every run is too short: x_cut is empty
        for events in (trace.jumps, trace.hits, empty.jumps, empty.hits):
            assert events.dtype == np.int64 and events.ndim == 2 and events.shape[1] == 3
        assert len(trace.jumps) and len(trace.hits)
        assert empty.jumps.shape == empty.hits.shape == (0, 3)

    def test_one_trace_over_two_calls(self):
        a, b = blob_image(64, 64, blobs=6, seed=1), random_image(32, 24, 0.7, seed=4)
        both, ta, tb = ErodeTrace(), ErodeTrace(), ErodeTrace()
        erode(a, square_se(3), both)
        erode(b, diamond_se(5), both)
        erode(a, square_se(3), ta)
        erode(b, diamond_se(5), tb)
        assert np.array_equal(both.jumps, np.concatenate((ta.jumps, tb.jumps)))
        assert np.array_equal(both.hits, np.concatenate((ta.hits, tb.hits)))
        assert (both.probes, both.rounds) == (ta.probes + tb.probes, ta.rounds + tb.rounds)


class TestScanKernel:
    """The one jump scan serves both traced and untraced erosion."""

    def test_traced_untraced_and_oracle_agree(self):
        rng = random.Random(24)
        for _ in range(200):
            x = random_rle_image(rng, 40, 40)
            se = random_se(rng)
            trace = ErodeTrace()
            traced = erode(x, se, trace)
            assert traced == erode(x, se) == erode_naive(x, se)
            q = generate_skeleton(se).anchor_q
            assert [[lx + q.x, y + q.y, rx - lx + 1] for lx, rx, y in traced.runs] == \
                trace.hits.tolist()

    # (candidates, probes, jumps, hits, trimmed) of the jump scan on fixed
    # cases.  A probe is one skeleton entry at one candidate, so probes =
    # entries x (jumps + hits), and a jump skips the largest deficit over
    # the entries.  Trimmed x_cut runs are not scanned.
    @pytest.mark.parametrize("x, se, counts", [
        pytest.param(SOLID_5, square_se(3), (3, 9, 0, 3, 2), id="solid5-square3"),
        pytest.param(blob_image(128, 96, blobs=12, seed=3), diamond_se(7),
                     (192, 1344, 47, 145, 12), id="blob-diamond7"),
        pytest.param(blob_image(160, 160, blobs=20, seed=5), square_se(11),
                     (489, 5379, 167, 322, 10), id="blob-square11"),
        pytest.param(random_image(48, 40, 0.7, seed=2), square_se(3),
                     (262, 786, 210, 52, 12), id="random-square3"),
        pytest.param(blob_image(96, 96, blobs=10, seed=8),
                     img((0, 4, 0), (2, 2, 3), (-3, -1, 5)),
                     (249, 747, 121, 128, 10), id="blob-three-runs"),
    ])
    def test_counts_pinned(self, x, se, counts):
        trace = ErodeTrace()
        erode(x, se, trace)
        assert (trace.candidates, trace.probes, len(trace.jumps), len(trace.hits),
                trace.trimmed) == counts
        # No position is a candidate twice.
        positions = np.concatenate((trace.jumps[:, :2], trace.hits[:, :2]))
        assert len(np.unique(positions, axis=0)) == trace.candidates

    # Lockstep rounds on the cases above: a round moves every unfinished
    # x_cut run by a jump, a hit or a jump that lands on a hit.
    @pytest.mark.parametrize("x, se, rounds", [
        pytest.param(SOLID_5, square_se(3), 1, id="solid5-square3"),
        pytest.param(blob_image(128, 96, blobs=12, seed=3), diamond_se(7), 3, id="blob-diamond7"),
        pytest.param(blob_image(160, 160, blobs=20, seed=5), square_se(11), 3,
                     id="blob-square11"),
        pytest.param(random_image(48, 40, 0.7, seed=2), square_se(3), 5, id="random-square3"),
        pytest.param(blob_image(96, 96, blobs=10, seed=8),
                     img((0, 4, 0), (2, 2, 3), (-3, -1, 5)), 3, id="blob-three-runs"),
    ])
    def test_rounds_pinned(self, x, se, rounds):
        trace = ErodeTrace()
        erode(x, se, trace)
        assert trace.rounds == rounds

    @pytest.mark.parametrize("v", [Point(2**40, -(2**40)), Point(-(2**40) + 7, 2**40 - 3)],
                             ids=["far-right-up", "far-left-down"])
    @pytest.mark.parametrize("se", [square_se(5), diamond_se(7),
                                    img((0, 4, 0), (2, 2, 3), (-3, -1, 5))],
                             ids=["square5", "diamond7", "three-runs"])
    def test_huge_coordinates(self, v, se):
        # The scan's int64 arithmetic must give the same runs and counts far
        # from the origin.
        x = blob_image(64, 48, blobs=6, seed=11)
        far = translate(x, v)
        near_trace, far_trace = ErodeTrace(), ErodeTrace()
        assert erode(far, se) == translate(erode(x, se), v)
        assert erode(far, se, far_trace) == translate(erode(x, se, near_trace), v)
        assert (far_trace.candidates, far_trace.probes, len(far_trace.jumps)) == \
            (near_trace.candidates, near_trace.probes, len(near_trace.jumps))
        assert dilate(far, se) == translate(dilate(x, se), v)

    @pytest.mark.parametrize("n", [2**60 - 2, 2**60, 2**60 + 5])
    def test_runs_past_2_to_60(self, n):
        # A hit's run ends at the nearest right end of the runs probed, with
        # no cap, and a trace holds one row per jump or hit, not per pixel.
        x = img((0, n, 0), (0, 3, 1))
        assert erode(x, img((0, 0, 0))) == x
        assert erode(x, img((0, 1, 0))) == img((0, n - 1, 0), (0, 2, 1))
        assert dilate(x, img((0, 0, 0))) == x
        tracemalloc.start()
        try:
            traced = erode(x, img((0, 1, 0)), ErodeTrace())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traced == erode(x, img((0, 1, 0)))
        assert peak < 2**20

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_x_cut_pixels_past_int64(self, traced):
        # Three runs of 2**62 + 1 pixels: their pixel sum does not fit int64.
        x = img(*[(-(2**61), 2**61, y) for y in range(3)])
        for se, expected in [(img((0, 0, 0)), x),
                             (img((0, 1, 0)), img(*[(-(2**61), 2**61 - 1, y) for y in range(3)]))]:
            assert erode(x, se, ErodeTrace() if traced else None) == expected

    def test_backend_reported(self):
        assert morphology.BACKEND == "python"


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

    def test_trim_peak_bounded_by_chunk(self):
        # A comb of 64 pixels two rows apart has 64 row blocks.  The
        # vertical trim's (block x run) arrays are built chunk by chunk, so
        # 63,102 x_cut runs (density 0.6) peak like 23,805 (density 0.9).
        se = img(*[(0, 0, 2 * i) for i in range(64)])
        peaks = []
        for density in (0.9, 0.6):
            x = random_image(512, 512, density, seed=0)
            tracemalloc.start()
            try:
                out = erode(x, se)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if out != erode_naive(x, se):
                pytest.fail(f"erosion at density {density} differs from erode_naive")
            peaks.append(peak)
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_scan_peak_bounded_by_budget(self):
        # The complement dilate builds for the blob image, eroded by square
        # 101 (101 entries): its live runs' (entry x run) arrays stay within
        # the one temporary budget, so the peak does too.
        x = blob_image(1024, 1024, seed=1)
        comp = complement_within(x, bounding_rect(x).grown(100, 100))
        tracemalloc.start()
        try:
            out = erode(comp, square_se(101))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if out != erode_runs(comp, square_se(101)):
            pytest.fail("erosion by square 101 differs from erode_runs")
        assert peak < 16 * _BLOCK_BYTES, peak

    @pytest.mark.xfail(strict=True, reason="dilate complements every row of the grown "
                       "bounding box; ROADMAP open item 2 complements only the rows "
                       "the element reaches")
    @pytest.mark.parametrize("small, large", [("sparse:1000", "sparse:64000"),
                                              ("tall:1000", "tall:100000")])
    def test_dilate_peak_follows_runs(self, small, large):
        # Keep these sizes while dilate's memory follows the box.
        peaks = []
        for source in (small, large):
            x, _ = load_image_source(source)
            tracemalloc.start()
            try:
                dilate(x, square_se(3))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] <= 4 * peaks[0], peaks


class TestCostLaws:
    """Scan cost follows the runs, not the element: counted, not timed.  Each
    law also checks the output, so that it cannot pass on a wrong answer."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a k x k square has k skeleton entries, each probed at "
                       "every candidate (766,186 probes for k = 101 against 39,611 "
                       "for k = 11); ROADMAP open item 7 erodes by a chain of "
                       "two-point columns")
    def test_element_height(self):
        # The complement dilate builds for the blob image, eroded by squares.
        x = blob_image(1024, 1024, seed=1)
        probes = {}
        for k in (11, 101):
            comp = complement_within(x, bounding_rect(x).grown(k - 1, k - 1))
            trace = ErodeTrace()
            if erode(comp, square_se(k), trace) != erode_runs(comp, square_se(k)):
                pytest.fail(f"erosion by square {k} differs from erode_runs")
            probes[k] = trace.probes
        assert probes[101] <= 4 * probes[11], probes


    def test_rounds_overlap_admissions(self, monkeypatch):
        # The blob complement by square 101 holds about eight budgets of
        # x_cut runs.  Runs join as others finish, so its rounds stay within
        # a small multiple of those with every run live (25 against 8), not
        # their sum over budgets scanned one after another (46).
        x = blob_image(1024, 1024, seed=1)
        comp = complement_within(x, bounding_rect(x).grown(100, 100))
        rounds = []
        for budget in (_BLOCK_BYTES, 2**40):
            monkeypatch.setattr(morphology, "_BLOCK_BYTES", budget)
            trace = ErodeTrace()
            if erode(comp, square_se(101), trace) != erode_runs(comp, square_se(101)):
                pytest.fail(f"erosion at budget {budget} differs from erode_runs")
            rounds.append(trace.rounds)
        assert rounds[0] <= 4 * rounds[1], rounds


class TestScanBoundedByRuns:
    """The scan's events follow the runs, not the pixels or the box."""

    def test_events_bounded(self):
        # K sums, over skeleton entries and distinct x_cut rows y0, the kept
        # runs of row y0 + sy: each (entry, kept run) pair ends at most one
        # hit and starts at most two jumps, and each x_cut run ends once.
        rng = random.Random(33)
        for i in range(400):
            if i % 2:
                x = blob_image(rng.randint(8, 96), rng.randint(8, 96),
                               blobs=rng.randint(1, 12), min_size=2, max_size=24,
                               seed=rng.randrange(2**32))
            else:
                x = random_rle_image(rng, 48, 48)
            se = random_se(rng)
            skel = generate_skeleton(se)
            tables = build_tables(x, skel)
            kept_y = drop_short_runs(x, skel.l_min).array[:, 2].tolist()
            cut_rows = set(tables.x_cut.array[:, 2].tolist())
            k = sum(kept_y.count(y0 + sy) for _, sy, _ in skel.entries.tolist() for y0 in cut_rows)
            trace = ErodeTrace()
            assert erode(x, se, trace) == erode_naive(x, se)
            assert len(trace.jumps) <= 2 * k + len(tables.x_cut)
            assert len(trace.hits) <= k

    def test_jumps_end_inside_their_run(self):
        # A jump skips no position past the end of its x_cut run, so the
        # skips and the emitted pixels together fit in x_cut.
        rng = random.Random(35)
        for i in range(200):
            if i % 2:
                x = blob_image(rng.randint(8, 96), rng.randint(8, 96),
                               blobs=rng.randint(1, 12), min_size=2, max_size=24,
                               seed=rng.randrange(2**32))
            else:
                x = random_rle_image(rng, 48, 48)
            se = random_se(rng)
            cut = build_tables(x, generate_skeleton(se)).x_cut
            runs = defaultdict(list)
            for lx, rx, y in cut.array.tolist():
                runs[y].append((lx, rx))
            trace = ErodeTrace()
            erode(x, se, trace)
            for jx, jy, k in trace.jumps.tolist():
                lx, rx = runs[jy][bisect.bisect_right(runs[jy], (jx, float("inf"))) - 1]
                assert lx <= jx and 1 <= k <= rx - jx + 1
            assert trace.jumps[:, 2].sum() + trace.hits[:, 2].sum() <= cut.pixel_count()

    def test_gap_costs_one_probe(self):
        probes = []
        for w in (10**4, 10**6, 2**60):
            x = img((0, w, 0), (0, w, 1), (0, 5, 2))
            trace = ErodeTrace()
            assert erode(x, square_se(3), trace) == img((1, 4, 1))
            probes.append(trace.probes)
        assert probes[0] == probes[1] == probes[2]

    @pytest.mark.parametrize("h", [10**3, 10**7, 2**40])
    def test_tall_box_memory(self, h):
        x = img((0, 5, 0), (0, 5, h))
        tracemalloc.start()
        try:
            out = erode(x, img((0, 1, 0)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == img((0, 4, 0), (0, 4, h))
        assert peak < 64 * 2**10


def reference_scan(x, se, trim=True):
    """The jump scan written out one candidate at a time, from the input's
    runs: (jumps, hits, probes, trimmed) as ErodeTrace records them, but
    with trimmed the list of trimmed x_cut runs (lx, rx, y), not their count.

    With trim, an x_cut run is skipped, trimmed, unless every row its
    element probes holds kept runs.  Each entry (s, d) probes px = cx + s.x
    in row y0 + s.y and finds the first kept run of that row with right end
    >= px.  Its deficit is left + d - 1 - px, or rx0 - cx + 1 past the
    row's last kept run.  The candidate jumps by the largest deficit, or
    hits up to the nearest right end and then skips the miss after it."""
    skel = generate_skeleton(se)
    kept = defaultdict(list)
    for lx, rx, y in x.array.tolist():
        if rx - lx + 1 >= skel.l_min:
            kept[y].append((rx, lx))
    probed = skel.entries[:, 1].tolist()
    jumps, hits, probes, trimmed = [], [], 0, []
    for lx, rx0, y0 in x.array.tolist():
        cx = lx + skel.l_max - 1
        if trim and cx <= rx0 and not all(kept.get(y0 + sy) for sy in probed):
            trimmed.append((cx, rx0, y0))
            continue
        while cx <= rx0:
            probes += len(skel.entries)
            deficits, rooms = [], []
            for sx, sy, d in skel.entries.tolist():
                px, row = cx + sx, kept[y0 + sy]
                i = bisect.bisect_left(row, (px,))
                if i == len(row):
                    deficits.append(rx0 - cx + 1)
                    rooms.append(-1)
                else:
                    deficits.append(row[i][1] + d - 1 - px)
                    rooms.append(row[i][0] - px)
            k = min(max(deficits), rx0 - cx + 1)
            if k > 0:
                jumps.append((cx, y0, k))
                cx += k
            else:
                hits.append((cx, y0, min(rooms) + 1))
                cx += min(rooms) + 2
    return jumps, hits, probes, trimmed


class TestScanMatchesReference:
    """The lockstep scan records exactly the events of the one-candidate
    reference, whatever its rounds and row lookups."""

    @staticmethod
    def check(x, se):
        trace = ErodeTrace()
        out = erode(x, se, trace)
        jumps, hits, probes, trimmed = reference_scan(x, se)
        assert (trace.jumps.tolist(), trace.hits.tolist(), trace.probes, trace.trimmed) == \
            ([list(j) for j in jumps], [list(h) for h in hits], probes, len(trimmed))
        assert out == erode_naive(x, se)

    def test_random_and_blob_cases(self):
        rng = random.Random(34)
        for i in range(320):
            if i % 2:
                x = blob_image(rng.randint(8, 80), rng.randint(8, 80),
                               blobs=rng.randint(1, 10), min_size=2, max_size=24,
                               seed=rng.randrange(2**32))
            else:
                x = random_rle_image(rng, 40, 40)
            self.check(x, random_se(rng))

    def test_many_block_combs(self):
        # Combs of 16-32 rows of 1-3 pixels, each row one or more below the
        # last, on images whose rows of one residue mod p are blank.  The
        # comb skips a residue mod p too, so runs in step with the blank
        # rows probe only kept rows, across one-row gaps, and the others
        # are trimmed.  A gap of a row or more starts a block: up to 32.
        rng = random.Random(35)
        blocks = set()
        for i in range(40):
            p, n, y, runs = rng.randint(2, 4), rng.randint(16, 32), 1, []
            while len(runs) < n:
                if y % p:
                    lx = rng.randint(-2, 2)
                    runs.append((lx, lx + rng.randint(0, 2), y))
                y += rng.choice((1, 1, 2))
            se = translate(img(*runs), Point(0, -rng.randint(0, y)))
            if i % 2:
                x = blob_image(rng.randint(20, 60), rng.randint(60, 140),
                               blobs=rng.randint(1, 4), min_size=20, max_size=60,
                               seed=rng.randrange(2**32))
            else:
                x = random_rle_image(rng, 40, 120, min_density=0.7)
            blank = rng.randrange(p)
            x = img(*[run for run in x.array.tolist() if run[2] % p != blank])
            sy = generate_skeleton(se).entries[:, 1].tolist()
            blocks.add(1 + sum(b - a > 1 for a, b in zip(sy, sy[1:])))
            self.check(x, se)
        assert max(blocks) > 6

    def test_chunked_scan(self, monkeypatch):
        # A budget of two live x_cut runs changes no event; a round moves at
        # most two runs, so there are at least half as many rounds as runs.
        x, se = blob_image(64, 64, blobs=6, seed=12), diamond_se(5)
        skel = generate_skeleton(se)
        n_cut = len(build_tables(x, skel).x_cut)
        whole = ErodeTrace()
        erode(x, se, whole)
        monkeypatch.setattr(morphology, "_BLOCK_BYTES", 8 * 2 * len(skel.entries))
        self.check(x, se)
        chunked = ErodeTrace()
        erode(x, se, chunked)
        assert chunked.rounds >= (n_cut - chunked.trimmed + 1) // 2 > whole.rounds

    # Rows of two runs each, (0, 9) and (12, 20) shifted by the row number.
    @staticmethod
    def rows(*ys):
        return img(*[run for y in ys for run in ((y, 9 + y, y), (12 + y, 20 + y, y))])

    @pytest.mark.parametrize("ys, se", [
        # Row 2 lies between kept rows 1 and 3 and holds no run, so the runs
        # of row 1 are trimmed, as are those of the last kept row 4; the
        # runs of rows 0 and 3 are scanned.
        pytest.param((0, 1, 3, 4), img((0, 0, 0), (0, 0, 1)), id="absent-between"),
        # The element's rows 0 and 2 are two blocks, each looked up on its
        # own: from row 0 the probed row 2 is the very next kept row, and
        # the runs of rows 2 and 3 are trimmed.
        pytest.param((0, 2, 3), img((0, 0, 0), (0, 0, 2)), id="present-after-gap"),
        # Kept rows [..., 57, 58, 60]: from rows 58 and 60 the element
        # probes row 59, a gap, or row 61, past the last kept row.
        pytest.param((*range(50, 59), 60), img((0, 1, -1), (0, 1, 0), (0, 1, 1)),
                     id="past-last-row"),
        # Kept rows [0, 2]: from row 0 the probed row 2 is the last kept
        # row, which the hits of row 0 need.
        pytest.param((0, 2), img((0, 0, 0), (0, 0, 2)), id="onto-last-row"),
        # Entries above the anchor probe rows before the first kept row.
        pytest.param(range(10, 16), img((0, 0, 0), (0, 0, 1), (0, 4, 2)),
                     id="before-first-row"),
    ])
    def test_row_lookup_edges(self, ys, se):
        self.check(self.rows(*ys), se)

    # A column of height 6 over kept rows {0, 5}: anchored at the top, the
    # element's last row lies past the last kept row; anchored at the
    # bottom, its first row lies before the first kept row.  Index clipping
    # would make rows 1-4 look present.
    COLUMN_TOP = img(*[(0, 0, y) for y in range(6)])
    COLUMN_BOTTOM = img(*[(0, 0, y) for y in range(5)], (-1, 0, 5))

    # (trimmed, candidates): a trimmed run holds no candidate.
    @pytest.mark.parametrize("x, se, counts", [
        pytest.param(img((0, 9, 0), (0, 9, 5)), COLUMN_TOP, (2, 0), id="column-top"),
        pytest.param(img((0, 9, 0), (0, 9, 5)), COLUMN_BOTTOM, (2, 0), id="column-bottom"),
        # Blocks of rows {0, 1} and {4}: the runs of rows 1 and 5 lack the
        # row below them, and those of rows 3 and 4 lack row 7 or 8; only
        # the runs of row 0 probe kept rows 0, 1 and 4 alone.
        pytest.param(rows(0, 1, 3, 4, 5), img((0, 0, 0), (0, 0, 1), (0, 0, 4)), (8, 6),
                     id="gap-below"),
        # Blocks of rows {-3} and {0}: only the runs of rows 3 and 6 find
        # a kept row three rows above them.
        pytest.param(rows(0, 3, 5, 6), img((0, 0, 0), (0, 1, 3)), (4, 8), id="gap-above"),
    ])
    def test_vertical_trim_paths(self, x, se, counts):
        self.check(x, se)
        trace = ErodeTrace()
        erode(x, se, trace)
        assert (trace.trimmed, trace.candidates) == counts

    def test_chunk_of_trimmed_runs(self, monkeypatch):
        # A budget of one live run: each run is trimmed as it is admitted,
        # and none is scanned.
        x, se = img((0, 9, 0), (0, 9, 5)), self.COLUMN_TOP
        monkeypatch.setattr(morphology, "_BLOCK_BYTES", 8 * len(generate_skeleton(se).entries))
        self.check(x, se)
        trace = ErodeTrace()
        erode(x, se, trace)
        assert (trace.trimmed, trace.candidates) == (2, 0)


class TestErodeCheckAt:
    def test_solid_case(self):
        se = img((0, 2, 0), (0, 2, 1), (0, 2, 2))
        skel = generate_skeleton(se)
        tables = build_tables(SOLID_5, skel)
        assert erode_check_at(tables, Point(4, 1))
        assert not erode_check_at(tables, Point(0, 0))

    def test_tables_carry_their_skeleton(self):
        # The tables trim x by the skeleton they hold, so the one-pixel run
        # at h is kept.
        x = img((0, 0, 0), (5, 9, 0))
        tables = build_tables(x, generate_skeleton(img((0, 0, 0))))
        assert tables.skel.l_min == tables.skel.l_max == 1
        assert erode_check_at(tables, Point(0, 0))

    def test_rows_without_kept_runs(self):
        # Kept rows {0, 2, 5}: h on row 1 or 3 (no kept run), above the
        # first kept row or below the last one never fits, and the column
        # of height 6 fits nowhere.
        x = img((0, 9, 0), (0, 9, 2), (0, 9, 5))
        for se in (img((0, 0, 0)), img((0, 0, 0), (0, 0, 3)), img((0, 0, 0), (0, 0, 5))):
            tables = build_tables(x, generate_skeleton(se))
            for y in (-7, -1, 1, 3, 4, 6, 12):
                assert not erode_check_at(tables, Point(4, y))
        tables = build_tables(x, generate_skeleton(img((0, 0, 0), (0, 0, 3))))
        assert erode_check_at(tables, Point(4, 2))
        column = build_tables(x, generate_skeleton(TestScanMatchesReference.COLUMN_TOP))
        assert not any(erode_check_at(column, Point(4, y)) for y in range(-6, 7))
        # No run of x is 11 long, so the tables keep no row at all.
        none_kept = build_tables(x, generate_skeleton(img((0, 10, 0))))
        assert len(none_kept.rows) == 0 and not erode_check_at(none_kept, Point(10, 0))

    def test_outside_probe_is_false(self):
        se = img((0, 2, 0))
        skel = generate_skeleton(se)
        tables = build_tables(SOLID_5, skel)
        assert not erode_check_at(tables, Point(50, 50))

    def test_single_pixel_se_membership(self):
        se = img((0, 0, 0))
        skel = generate_skeleton(se)
        rng = random.Random(24)
        for _ in range(10):
            x = random_rle_image(rng, 16, 16)
            tables = build_tables(x, skel)
            pixels = x.pixel_set()
            for _ in range(20):
                h = Point(rng.randint(-10, 20), rng.randint(-10, 20))
                assert erode_check_at(tables, h) == (h in pixels)

    def test_equivalent_to_subset_test(self):
        rng = random.Random(25)
        for _ in range(30):
            x = random_rle_image(rng, 20, 20)
            se = random_se(rng, 6)
            skel = generate_skeleton(se)
            q = skel.anchor_q
            tables = build_tables(x, skel)
            anchored = translate(se, Point(-q.x, -q.y))
            kept = drop_short_runs(x, skel.l_min).pixel_set()
            for _ in range(10):
                h = Point(rng.randint(-12, 24), rng.randint(-12, 24))
                fits = all(
                    (h.x + p.x, h.y + p.y) in kept for p in anchored.pixels()
                )
                assert erode_check_at(tables, h) == fits

    @pytest.mark.parametrize("h, message", [
        (Point(0.5, 0), "run Run(lx=0.5, rx=0.5, y=0) has a non-integer coordinate"),
        (Point(2**61 + 1, 0), f"run Run(lx={2**61 + 1}, rx={2**61 + 1}, y=0) has a "
                              "coordinate beyond +-2**61"),
    ])
    def test_bad_point_refused(self, h, message):
        tables = build_tables(SOLID_5, generate_skeleton(img((0, 0, 0))))
        with pytest.raises(ValueError) as refused:
            erode_check_at(tables, h)
        assert str(refused.value) == message


def _blank_rows(grid, blank):
    grid = grid.copy()
    grid[[y for y in blank if y < len(grid)]] = False
    return grid


# Images with a band of blank rows, and non-empty elements with gaps
# between their rows.
banded_images = st.builds(lambda g, lo, n, p: from_raster(_blank_rows(g, range(lo, lo + n)), p),
                          grids, st.integers(0, 11), st.integers(0, 4), points)
gapped_elements = st.builds(lambda g, blank, p: from_raster(_blank_rows(g, blank), p),
                            grids, st.sets(st.integers(0, 11), max_size=6), points
                            ).filter(lambda se: not se.is_empty)


class TestVerticalTrim:
    """An x_cut run is scanned only if every row its element probes holds
    kept runs; the others leave no event."""

    @settings(deadline=None)
    @given(banded_images, gapped_elements)
    def test_matches_naive_and_reference(self, x, se):
        TestScanMatchesReference.check(x, se)
        skel = generate_skeleton(se)
        # A trimmed run is the one jump out of its run that its first
        # candidate makes untrimmed: a probe of a row without kept runs
        # misses to the run's end.
        jumps, hits, probes, trimmed = reference_scan(x, se)
        jumps_all, hits_all, probes_all, _ = reference_scan(x, se, trim=False)
        out = [(cx, y0, rx0 - cx + 1) for cx, rx0, y0 in trimmed]
        assert sorted(jumps + out, key=lambda j: (j[1], j[0])) == jumps_all
        assert (hits, probes + len(skel.entries) * len(trimmed)) == (hits_all, probes_all)


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
