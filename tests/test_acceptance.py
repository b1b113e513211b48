"""Acceptance suite.

Each test prints one PASS line when its criterion holds; pytest reports
failures in the usual way.  Criteria:

1. fast erode/dilate match the naive references on >= 500 seeded random
   instances, exact set equality.
2. run-decomposition erosion agrees with both other erosion paths on the
   same corpus.
3. algebraic laws: translation law, short-run removal, table recurrences,
   skeleton soundness, probe/membership equivalence, jump instrumentation,
   complement duality.
4. performance trend on a 1024x1024 blob image: fast erosion does not
   degrade with element size (1.5x slack) and beats the naive reference by
   >= 10x at size 51.
5. the trimmed input bounds the candidates examined; exact count on the
   5x5 / 3x3 instance.
6. 200 random images survive P1, P4 and RLE-text round trips bit-exactly;
   malformed inputs raise the designated parse errors.
7. CLI end-to-end pipeline and benchmark CSV schema.
"""
import csv
import io
import random
import time

import pytest

from rlemorph.bench import CSV_FIELDS, rows_to_csv, run_bench
from rlemorph.cli import main
from rlemorph.generate import blob_image, square_se
from rlemorph.imgio import (
    ImageFileMeta,
    PbmParseError,
    RleTextParseError,
    read_pbm,
    read_rle_text,
    write_pbm,
    write_rle_text,
)
from rlemorph.morphology import (
    ErodeTrace,
    build_tables,
    dilate,
    erode,
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
    Point,
    bounding_rect,
    complement_within,
    drop_short_runs,
    reflect,
    translate,
)

from helpers import A, img, random_rle_image, random_se, trimmed_tables


def _corpus(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_rle_image(rng, 64, 64), random_se(rng, 9)


@pytest.fixture(scope="module")
def corpus():
    return list(_corpus(2024, 500))


def test_criterion_1_oracle_equivalence(corpus):
    for i, (x, se) in enumerate(corpus):
        assert erode(x, se) == erode_naive(x, se), f"erode mismatch at #{i}"
        assert dilate(x, se) == dilate_naive(x, se), f"dilate mismatch at #{i}"
    print(f"\nACCEPTANCE 1 oracle equivalence ({len(corpus)} instances): PASS")


def test_criterion_2_triple_agreement(corpus):
    for i, (x, se) in enumerate(corpus):
        expected = erode_naive(x, se)
        assert erode_runs(x, se) == expected, f"run decomposition mismatch at #{i}"
        assert erode(x, se) == expected, f"fast path mismatch at #{i}"
    print(f"\nACCEPTANCE 2 triple agreement ({len(corpus)} instances): PASS")


def test_criterion_3a_translation_law():
    rng = random.Random(301)
    for _ in range(100):
        x = random_rle_image(rng, 32, 32)
        se = random_se(rng)
        v = Point(rng.randint(-15, 15), rng.randint(-15, 15))
        assert erode(x, translate(se, v)) == translate(
            erode(x, se), Point(-v.x, -v.y)
        )
    print("\nACCEPTANCE 3a translation law (100 instances): PASS")


def test_criterion_3b_short_run_removal():
    rng = random.Random(302)
    for _ in range(100):
        x = random_rle_image(rng, 32, 32)
        se = random_se(rng)
        l_min = generate_skeleton(se).l_min
        assert erode(x, se) == erode(drop_short_runs(x, l_min), se)
    print("\nACCEPTANCE 3b short-run removal (100 instances): PASS")


def test_criterion_3c_table_recurrences():
    rng = random.Random(303)
    for _ in range(30):
        x = random_rle_image(rng, 32, 32)
        t = trimmed_tables(x, 1, 1)
        for run in x.runs:
            for px in range(run.lx, run.rx + 1):
                if px > run.lx:
                    assert t.distances(px, run.y)[0] == t.distances(px - 1, run.y)[0] + 1
                if px < run.rx:
                    assert t.distances(px, run.y)[1] == t.distances(px + 1, run.y)[1] + 1
    print("\nACCEPTANCE 3c left/right table recurrences: PASS")


def test_criterion_3d_skeleton_soundness():
    rng = random.Random(304)
    for _ in range(50):
        se = random_se(rng, 8)
        skel = generate_skeleton(se)
        q = skel.anchor_q
        moved = translate(se, Point(-q.x, -q.y))
        f = erosion_transform_naive(moved, A)
        naive = skeleton_naive(moved, A)
        points = {Point(sx, sy) for sx, sy, _ in skel.entries.tolist()}
        assert points <= naive
        assert points == {Point(r.rx, r.y) for r in moved.runs}
        assert naive == {Point(r.rx, r.y) for r in moved.runs}
        for sx, sy, depth in skel.entries.tolist():
            assert f[Point(sx, sy)] == depth
    print("\nACCEPTANCE 3d skeleton soundness: PASS")


def test_criterion_3e_membership_equivalence():
    rng = random.Random(305)
    checked = 0
    while checked < 1000:
        x = random_rle_image(rng, 24, 24)
        se = random_se(rng, 7)
        fb = erosion_transform_naive(se, A)
        fx = erosion_transform_naive(x, A)
        skel = skeleton_naive(se, A)
        hits = erode_naive(x, se).pixel_set()
        for _ in range(10):
            h = Point(rng.randint(-14, 14), rng.randint(-14, 14))
            probe_ok = all(
                fb[s] <= fx.get(Point(h.x + s.x, h.y + s.y), 0) for s in skel
            )
            assert probe_ok == (h in hits)
            checked += 1
    print(f"\nACCEPTANCE 3e membership equivalence ({checked} probes): PASS")


def test_criterion_3f_jump_instrumentation():
    rng = random.Random(306)
    for _ in range(80):
        x = random_rle_image(rng, 28, 28)
        se = random_se(rng, 7)
        skel = generate_skeleton(se)
        q = skel.anchor_q
        trace = ErodeTrace()
        erode(x, se, trace)
        anchored = erode_naive(x, translate(se, Point(-q.x, -q.y))).pixel_set()
        for jx, jy, k in trace.jumps:
            for i in range(k):
                assert (jx + i, jy) not in anchored, "skipped candidate was a hit"
        for hx, hy, n in trace.hits:
            assert (hx + n, hy) not in anchored, "pixel after a hit-run was a hit"
    print("\nACCEPTANCE 3f jump-miss/jump-hit instrumentation: PASS")


def test_criterion_3g_duality_construction():
    rng = random.Random(307)
    done = 0
    while done < 60:
        x = random_rle_image(rng, 28, 28)
        se = random_se(rng)
        sb = bounding_rect(se)
        if x.is_empty or not (sb.l <= 0 <= sb.r and sb.t <= 0 <= sb.b):
            continue
        rb = bounding_rect(x)
        rec_dil = rb.grown(sb.width, sb.height)
        rec_ero = rb.grown(2 * sb.width, 2 * sb.height)
        manual = complement_within(
            erode(complement_within(x, rec_ero), reflect(se)), rec_dil
        )
        assert dilate(x, se) == manual == dilate_naive(x, se)
        done += 1
    print("\nACCEPTANCE 3g complement duality construction: PASS")


def test_criterion_4_performance_trend():
    image = blob_image(1024, 1024, seed=1)

    def mean_time(fn, se, iters=3):
        fn(image, se)  # warm-up
        times = []
        for _ in range(iters):
            t0 = time.perf_counter()
            fn(image, se)
            times.append(time.perf_counter() - t0)
        return sum(times) / len(times)

    fast = {size: mean_time(erode, square_se(size)) for size in (11, 31, 51, 101)}
    naive_51 = mean_time(erode_naive, square_se(51))
    assert fast[101] <= fast[11] * 1.5, (
        f"fast erode got slower with element size: {fast}"
    )
    ratio = naive_51 / fast[51]
    assert ratio >= 10.0, f"fast/naive speedup only {ratio:.1f}x at size 51"
    print(
        "\nACCEPTANCE 4 performance trend: PASS "
        f"(fast ms: {[round(v * 1000, 2) for v in fast.values()]}, "
        f"speedup at 51: {ratio:.0f}x)"
    )


def test_criterion_5_x_cut_effectiveness():
    rng = random.Random(500)
    for _ in range(60):
        x = random_rle_image(rng, 32, 32)
        se = random_se(rng)
        skel = generate_skeleton(se)
        cut = build_tables(x, skel).x_cut
        trace = ErodeTrace()
        erode(x, se, trace)
        assert trace.candidates <= cut.pixel_count()

    # solid k x k element on a solid n x n square: every row survives and
    # loses k - 1 leading pixels
    for n, k in ((5, 3), (8, 3), (10, 5)):
        solid = img(*[(0, n - 1, y) for y in range(n)])
        se = square_se(k)
        skel = generate_skeleton(se)
        cut = build_tables(solid, skel).x_cut
        assert cut.pixel_count() == n * n - (k - 1) * n

    solid5 = img(*[(0, 4, y) for y in range(5)])
    trace = ErodeTrace()
    erode(solid5, square_se(3), trace)
    assert trace.candidates <= 15
    print("\nACCEPTANCE 5 x_cut effectiveness (25 -> at most 15 candidates): PASS")


def test_criterion_6_io_round_trips():
    rng = random.Random(600)
    for _ in range(200):
        image = random_rle_image(rng, 32, 32, offset_range=0)
        rect = bounding_rect(image)
        w = (rect.r + 1) if rect else 1
        h = (rect.b + 1) if rect else 1
        meta = ImageFileMeta(w, h)
        assert read_pbm(write_pbm(image, meta, "P1"))[0] == image
        assert read_pbm(write_pbm(image, meta, "P4"))[0] == image
        assert read_rle_text(write_rle_text(image)) == image

    with pytest.raises(PbmParseError):
        read_pbm(b"P4\n32 32\n\x00\x01")  # truncated payload
    with pytest.raises(PbmParseError):
        read_pbm(b"P7\n2 2\n")  # bad magic
    with pytest.raises(RleTextParseError):
        read_rle_text("0 5 1\n")  # lx > rx
    print("\nACCEPTANCE 6 IO round trips (200 images + malformed corpus): PASS")


def test_criterion_7_cli_end_to_end(tmp_path):
    x = tmp_path / "x.rle"
    se = tmp_path / "se.rle"
    out = tmp_path / "out.rle"
    x.write_text(write_rle_text(img(*[(0, 4, y) for y in range(5)])))
    assert main(["convert", "square:3", "-o", str(se)]) == 0
    assert main(["erode", str(x), str(se), "-o", str(out)]) == 0
    assert read_rle_text(out.read_text()) == img((1, 3, 1), (1, 3, 2), (1, 3, 3))

    calls = []

    def clock():
        calls.append(None)
        return float(len(calls))

    rows = run_bench(
        image_source=str(x),
        elements=("square:3", "square:5"),
        algorithms=("fast-erode", "fast-dilate"),
        iterations=3,
        clock=clock,
    )
    assert len(calls) == 2 * 3 * len(rows)  # 2 reads per timed call, 3 per row
    text = rows_to_csv(rows)
    reader = csv.DictReader(io.StringIO(text))
    assert reader.fieldnames == CSV_FIELDS
    assert len(list(reader)) == 4
    print("\nACCEPTANCE 7 CLI end-to-end + bench schema: PASS")
