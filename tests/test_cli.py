"""Command-line front end, benchmark harness, generators and scripts."""
import csv
import importlib.util
import io
import random
import re
from pathlib import Path

import numpy as np
import pytest

from rlemorph import morphology
from rlemorph.bench import CSV_FIELDS, load_image_source, rows_to_csv, run_bench
from rlemorph.cli import main
from rlemorph.generate import blob_image, diamond_se, random_image, square_se
from rlemorph.imgio import ImageFileMeta, read_rle_text, write_rle_text
from rlemorph.rle import EMPTY, Point, from_raster, reflect

from helpers import img, random_rle_image


def blob_image_full_grid(width, height, blobs=40, min_size=8, max_size=64, seed=0):
    """Reference for blob_image: the same draws, each disc tested over the whole grid."""
    rng = np.random.default_rng(seed)
    grid = np.zeros((height, width), dtype=bool)
    ys, xs = np.ogrid[:height, :width]
    for _ in range(blobs):
        cx = int(rng.integers(0, width))
        cy = int(rng.integers(0, height))
        s = int(rng.integers(min_size, max_size + 1))
        if rng.random() < 0.5:
            w2 = s // 2
            h2 = max(1, int(rng.integers(min_size, max_size + 1)) // 2)
            grid[max(0, cy - h2) : cy + h2 + 1, max(0, cx - w2) : cx + w2 + 1] = True
        else:
            r = s // 2
            grid |= (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    return from_raster(grid, Point(0, 0))


class TestGenerators:
    def test_square_3(self):
        assert square_se(3) == img((-1, 1, -1), (-1, 1, 0), (-1, 1, 1))

    def test_diamond_3(self):
        assert diamond_se(3) == img((0, 0, -1), (-1, 1, 0), (0, 0, 1))

    def test_size_1(self):
        assert square_se(1) == diamond_se(1) == img((0, 0, 0))

    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            square_se(4)
        with pytest.raises(ValueError):
            diamond_se(0)

    def test_origin_symmetric(self):
        for size in (1, 3, 5, 9):
            assert reflect(square_se(size)) == square_se(size)
            assert reflect(diamond_se(size)) == diamond_se(size)

    def test_random_image_densities(self):
        assert random_image(8, 8, 0.0, seed=1) == EMPTY
        solid = random_image(8, 8, 1.0, seed=1)
        assert len(solid.runs) == 8 and solid.pixel_count() == 64

    def test_determinism(self):
        assert random_image(32, 32, 0.4, seed=7) == random_image(32, 32, 0.4, seed=7)
        assert blob_image(64, 64, seed=3) == blob_image(64, 64, seed=3)

    def test_blob_image_nonempty(self):
        b = blob_image(64, 64, seed=0)
        assert not b.is_empty

    @pytest.mark.parametrize("width,height", [(40, 30), (7, 300), (300, 7), (1, 1), (97, 64)])
    def test_blob_discs_match_full_grid(self, width, height):
        for seed in range(5):
            assert blob_image(width, height, seed=seed) == blob_image_full_grid(
                width, height, seed=seed)
            assert blob_image(width, height, 60, 1, 25, seed) == blob_image_full_grid(
                width, height, 60, 1, 25, seed)


class TestCliErodeDilate:
    def test_erode_pipeline(self, tmp_path, capsys):
        x = tmp_path / "x.rle"
        se = tmp_path / "se.rle"
        out = tmp_path / "out.rle"
        x.write_text(write_rle_text(img(*[(0, 4, y) for y in range(5)])))
        se.write_text(write_rle_text(square_se(3)))
        assert main(["erode", str(x), str(se), "-o", str(out)]) == 0
        result = read_rle_text(out.read_text())
        assert result == img((1, 3, 1), (1, 3, 2), (1, 3, 3))
        assert "3 runs, 9 pixels" in capsys.readouterr().err

    def test_identity_se(self, tmp_path):
        rng = random.Random(50)
        image = random_rle_image(rng, 16, 16)
        x = tmp_path / "x.rle"
        se = tmp_path / "se.rle"
        out = tmp_path / "out.rle"
        x.write_text(write_rle_text(image))
        se.write_text("0 0 0\n")
        assert main(["erode", str(x), str(se), "-o", str(out)]) == 0
        assert read_rle_text(out.read_text()) == image
        assert main(["dilate", str(x), str(se), "-o", str(out)]) == 0
        assert read_rle_text(out.read_text()) == image

    def test_oversized_se_gives_empty_file(self, tmp_path):
        x = tmp_path / "x.rle"
        se = tmp_path / "se.rle"
        out = tmp_path / "out.rle"
        x.write_text("0 0 1\n")
        se.write_text(write_rle_text(square_se(9)))
        assert main(["erode", str(x), str(se), "-o", str(out)]) == 0
        assert out.read_text() == ""

    def test_dilate_examples(self, tmp_path):
        x = tmp_path / "x.rle"
        se = tmp_path / "se.rle"
        out = tmp_path / "out.rle"
        x.write_text("0 0 0\n0 4 4\n")
        se.write_text("0 0 1\n")
        assert main(["dilate", str(x), str(se), "-o", str(out)]) == 0
        assert read_rle_text(out.read_text()) == img((0, 1, 0), (4, 5, 0))

    def test_empty_se_exit_code(self, tmp_path):
        x = tmp_path / "x.rle"
        se = tmp_path / "se.rle"
        out = tmp_path / "out.rle"
        x.write_text("0 0 3\n")
        se.write_text("")
        assert main(["erode", str(x), str(se), "-o", str(out)]) == 3

    @pytest.mark.parametrize("op, x, se", [
        ("erode", img((2**61 - 3, 2**61, 0)), img((-(2**61), -(2**61), 0))),
        ("dilate", img((2**61 - 1, 2**61 - 1, 0)), square_se(5)),
    ], ids=["erode", "dilate"])
    def test_coordinate_bound_exit_code(self, tmp_path, capsys, op, x, se):
        # Valid inputs whose result leaves +-2**61: a domain error, not a
        # usage error.
        paths = [tmp_path / name for name in ("x.rle", "se.rle", "out.rle")]
        paths[0].write_text(write_rle_text(x))
        paths[1].write_text(write_rle_text(se))
        assert main([op, str(paths[0]), str(paths[1]), "-o", str(paths[2])]) == 3
        assert "beyond" in capsys.readouterr().err
        assert not paths[2].exists()

    def test_parse_error_exit_code(self, tmp_path):
        x = tmp_path / "x.rle"
        se = tmp_path / "se.rle"
        x.write_text("0 9 1\n")  # lx > rx
        se.write_text("0 0 0\n")
        assert main(["erode", str(x), str(se), "-o", str(x)]) == 2

    def test_undecodable_input_exit_code(self, tmp_path, capsys):
        x = tmp_path / "x.rle"
        se = tmp_path / "se.rle"
        x.write_bytes(b"0 0 0\n\xff\xfe 1 2\n")
        se.write_text("0 0 0\n")
        assert main(["erode", str(x), str(se), "-o", str(tmp_path / "o.rle")]) == 2
        assert "(line 2)" in capsys.readouterr().err

    def test_p4_raster_without_whitespace_exit_code(self, tmp_path, capsys):
        pbm = tmp_path / "a.pbm"
        pbm.write_bytes(b"P4\n8 1#c\n\xff")
        assert main(["convert", str(pbm), "-o", str(tmp_path / "b.rle")]) == 2
        assert "(byte offset 9)" in capsys.readouterr().err
        assert not (tmp_path / "b.rle").exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["erode", str(tmp_path / "no.rle"), str(tmp_path / "no.rle"),
                     "-o", str(tmp_path / "o.rle")]) == 2

    def test_usage_error_exit_code(self):
        assert main(["erode"]) == 1


class TestCliGen:
    """Elements and test images written by convert from a spec."""

    def test_gen_se(self, tmp_path):
        out = tmp_path / "se.rle"
        assert main(["convert", "square:3", "-o", str(out)]) == 0
        assert read_rle_text(out.read_text()) == square_se(3)
        assert main(["convert", "diamond:3", "-o", str(out)]) == 0
        assert read_rle_text(out.read_text()) == diamond_se(3)

    def test_gen_se_even_size(self, tmp_path):
        assert main(["convert", "square:4", "-o", str(tmp_path / "se.rle")]) == 1

    def test_gen_image_deterministic(self, tmp_path):
        a = tmp_path / "a.rle"
        b = tmp_path / "b.rle"
        spec = "random:20x10:density=0.3:seed=5"
        assert main(["convert", spec, "-o", str(a)]) == 0
        assert main(["convert", spec, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_image_bad_density(self, tmp_path):
        assert main(["convert", "random:4x4:density=1.5",
                     "-o", str(tmp_path / "a.rle")]) == 1


SPECS = ["random:16x8:density=0.3:seed=5", "random:9x4", "blobs:40x30:seed=3",
         "square:5", "diamond:7", "sparse:50", "gap:100", "tall:20"]


class TestCliSpecs:
    @pytest.mark.parametrize("spec", SPECS)
    def test_spec_as_input_and_element(self, tmp_path, spec):
        x, se, a, b = (tmp_path / name for name in ("x.rle", "se.rle", "a.rle", "b.rle"))
        assert main(["convert", spec, "-o", str(se)]) == 0
        assert read_rle_text(se.read_text()) == load_image_source(spec)[0]
        x.write_text(write_rle_text(blob_image(24, 16, 6, 2, 9, seed=1)))
        for op in ("erode", "dilate"):
            assert main([op, str(x), spec, "-o", str(a)]) == 0
            assert main([op, str(x), str(se), "-o", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_empty_random_image_keeps_its_canvas(self, tmp_path):
        out = tmp_path / "e.pbm"
        assert main(["convert", "random:8x8:density=0.0", "-o", str(out)]) == 0
        assert out.read_bytes() == b"P1\n8 8\n" + b"0 0 0 0 0 0 0 0\n" * 8

    def test_exit_codes(self, tmp_path):
        x, out = str(tmp_path / "x.rle"), str(tmp_path / "o.rle")
        (tmp_path / "x.rle").write_text("0 0 4\n")
        assert main(["erode", x, "square:4", "-o", out]) == 1
        assert main(["dilate", "blobs:8x8:density=0.5", "square:3", "-o", out]) == 1
        assert main(["convert", str(tmp_path / "no.rle"), "-o", out]) == 2


class TestCliConvert:
    def test_pbm_rle_round_trip(self, tmp_path):
        pbm = tmp_path / "a.pbm"
        rle = tmp_path / "a.rle"
        back = tmp_path / "b.pbm"
        assert main(["convert", "random:12x7:density=0.5:seed=2", "-o", str(pbm),
                     "--format", "pbm1"]) == 0
        assert main(["convert", str(pbm), "-o", str(rle)]) == 0
        assert main(["convert", str(rle), "-o", str(back), "--format", "pbm1"]) == 0
        from rlemorph.imgio import read_pbm

        a, _ = read_pbm(pbm.read_bytes())
        b, _ = read_pbm(back.read_bytes())
        assert a == b

    def test_negative_coordinates_to_pbm_fails(self, tmp_path, capsys):
        rle = tmp_path / "a.rle"
        rle.write_text("0 -1 1\n")
        code = main(["convert", str(rle), "-o", str(tmp_path / "a.pbm"),
                     "--format", "pbm1"])
        assert code == 3
        assert "(-1, 1, 0)" in capsys.readouterr().err

    def test_pbm_suffix_writes_p1(self, tmp_path):
        rle = tmp_path / "a.rle"
        rle.write_text("0 0 1\n1 2 2\n")
        assert main(["convert", str(rle), "-o", str(tmp_path / "a.pbm")]) == 0
        data = (tmp_path / "a.pbm").read_bytes()
        assert data == b"P1\n3 2\n1 1 0\n0 0 1\n"

    @pytest.mark.parametrize("rx", [2**63 - 1, 2**63])
    def test_coordinate_beyond_bound_exit_code(self, tmp_path, capsys, rx):
        rle = tmp_path / "a.rle"
        rle.write_text(f"0 0 {rx}\n")
        assert main(["convert", str(rle), "-o", str(tmp_path / "b.rle")]) == 2
        assert "(line 1)" in capsys.readouterr().err
        assert not (tmp_path / "b.rle").exists()

    def test_empty_image_converts(self, tmp_path):
        rle = tmp_path / "a.rle"
        rle.write_text("")
        assert main(["convert", str(rle), "-o", str(tmp_path / "b.rle")]) == 0
        assert (tmp_path / "b.rle").read_text() == ""


class TestBench:
    def test_run_bench_argument_validation(self):
        # Refused before anything is read (the missing image would raise
        # OSError) and before any timing (the clock raises if it is read).
        def clock():
            raise AssertionError("clock read")

        for elements, algorithms, iterations, message in [
            ((), ("fast-erode",), 3, "elements must not be empty"),
            (("square:3",), (), 3, "algorithms must not be empty"),
            (("square:3",), ("fast-erode",), 0, "iterations must be >= 1"),
            (("square:3",), ("fast-erode", "warp-erode"), 3, "unknown algorithm 'warp-erode'"),
        ]:
            for image in ("missing.rle", "random:8x8:seed=1"):
                with pytest.raises(ValueError, match=re.escape(message)):
                    run_bench(image, elements, algorithms, iterations, clock=clock)

    def test_single_row_solid_case(self, tmp_path):
        src = tmp_path / "x.rle"
        src.write_text(write_rle_text(img(*[(0, 4, y) for y in range(5)])))
        rows = run_bench(image_source=str(src), elements=("square:3",),
                         algorithms=("fast-erode",), iterations=3)
        assert len(rows) == 1
        row = rows[0]
        assert row["runs_out"] == 3 and row["pixels_out"] == 9
        assert row["status"] == "ok"
        assert row["mean_ms"] >= 0

    def test_exactly_n_timed_calls(self, tmp_path):
        src = tmp_path / "x.rle"
        src.write_text("0 0 9\n")
        calls = []

        def clock():
            calls.append(len(calls))
            return float(len(calls))

        run_bench(image_source=str(src), elements=("square:3",),
                  algorithms=("fast-erode",), iterations=3, clock=clock)
        # warm-up is untimed: 2 clock reads per timed call, 3 timed calls
        assert len(calls) == 6

    def test_all_algorithms_agree(self, tmp_path):
        src = tmp_path / "x.rle"
        rng = random.Random(51)
        src.write_text(write_rle_text(random_rle_image(rng, 24, 24,
                                                       offset_range=0)))
        elements = ("square:3", "square:5")
        rows = run_bench(
            image_source=str(src),
            elements=elements,
            algorithms=("fast-erode", "naive-erode", "runs-erode",
                        "fast-dilate", "naive-dilate"),
            iterations=3,
        )
        assert all(r["status"] == "ok" for r in rows)
        for spec in elements:
            ero = {(r["runs_out"], r["pixels_out"]) for r in rows
                   if r["op"] == "erode" and r["se"] == spec}
            dil = {(r["runs_out"], r["pixels_out"]) for r in rows
                   if r["op"] == "dilate" and r["se"] == spec}
            assert len(ero) == 1 and len(dil) == 1

    def test_failing_case_recorded(self, tmp_path):
        # The dilation of the pixel at 2**61 - 1 by square 5 reaches
        # 2**61 + 1, so the operator refuses; at 2**61 - 3 it fits.
        src = tmp_path / "x.rle"
        src.write_text(f"0 {2**61 - 1} {2**61 - 1}\n")
        rows = run_bench(image_source=str(src), elements=("square:5",),
                         algorithms=("fast-dilate",), iterations=3)
        assert len(rows) == 1
        assert rows[0]["status"].startswith("error:")
        assert "2**61" in rows[0]["status"]
        src.write_text(f"0 {2**61 - 3} {2**61 - 3}\n")
        rows = run_bench(image_source=str(src), elements=("square:5",),
                         algorithms=("fast-dilate",), iterations=3)
        assert [(r["status"], r["runs_out"], r["pixels_out"]) for r in rows] == [("ok", 5, 25)]

    def test_csv_schema(self, tmp_path):
        src = tmp_path / "x.rle"
        src.write_text("0 0 9\n")
        text = rows_to_csv(run_bench(image_source=str(src), elements=("square:3",),
                                     algorithms=("fast-erode", "naive-erode"), iterations=3))
        reader = csv.DictReader(io.StringIO(text))
        assert reader.fieldnames == CSV_FIELDS
        assert len(list(reader)) == 2

    def test_synthetic_source(self):
        a = load_image_source("random:16x8:density=0.5:seed=3")
        b = load_image_source("random:16x8:density=0.5:seed=3")
        assert a == b and not a[0].is_empty and a[1] == ImageFileMeta(16, 8)
        assert load_image_source("blobs:32x24:seed=4") == (
            blob_image(32, 24, seed=4), ImageFileMeta(32, 24))
        assert load_image_source("sparse:100") == (img(
            *[(s, s + 9, s + y) for s in (0, 100) for y in range(3)]), None)
        assert load_image_source("gap:1000") == (
            img((0, 1000, 0), (0, 1000, 1), (0, 5, 2)), None)
        assert load_image_source("tall:7") == (img((0, 5, 0), (0, 5, 7)), None)
        assert load_image_source("square:5") == (square_se(5), None)
        assert load_image_source("diamond:5") == (diamond_se(5), None)

    def test_blobs_density_rejected(self, tmp_path, capsys):
        # Blob images take no density; one given is refused, not ignored.
        with pytest.raises(ValueError, match="density"):
            load_image_source("blobs:32x24:density=0.9:seed=4")
        code = main(["bench", "--image", "blobs:32x24:density=0.9:seed=4",
                     "--csv", str(tmp_path / "b.csv")])
        assert code == 1
        assert "density" in capsys.readouterr().err

    def test_diamond_sweep(self):
        elements = ("diamond:3", "diamond:5")
        rows = run_bench(image_source="blobs:32x24:seed=4", elements=elements,
                         algorithms=("fast-erode", "naive-erode"), iterations=1)
        assert [r["se"] for r in rows] == ["diamond:3", "diamond:3", "diamond:5", "diamond:5"]
        assert all(r["status"] == "ok" for r in rows)
        for spec in elements:
            assert len({r["pixels_out"] for r in rows if r["se"] == spec}) == 1

    def test_cli_bench(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--image", "random:16x16:density=0.4:seed=1",
                     "--se", "square:3", "--se", "square:5",
                     "--algo", "fast-erode", "--algo", "fast-dilate",
                     "--iterations", "2", "--csv", str(out)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)

    def test_cli_bench_gap_image(self, tmp_path):
        # Three runs in a box a million wide: the scan crosses the gap in one jump.
        out = tmp_path / "bench.csv"
        assert main(["bench", "--image", "gap:1000000", "--csv", str(out)]) == 0
        [row] = csv.DictReader(io.StringIO(out.read_text()))
        assert (row["status"], row["runs_out"], row["pixels_out"]) == ("ok", "1", "4")

    def test_cli_bench_prints_one_table_line_per_row(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--image", "random:16x16:density=0.4:seed=1",
                     "--se", "square:3", "--se", "square:5", "--se", "square:7",
                     "--algo", "fast-erode", "--algo", "naive-erode",
                     "--iterations", "1", "--csv", str(out)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split() == ["algorithm", "op", "se", "mean_ms", "runs",
                                  "pixels", "status"]
        assert len(lines) == len(rows) == 6
        for line, row in zip(lines, rows):
            fields = line.split()
            assert fields[:3] == [row["algorithm"], row["op"], row["se"]]
            assert fields[4:] == [row["runs_out"], row["pixels_out"], row["status"]]

    def test_cli_bench_se_file(self, tmp_path):
        # One run times a square, an element file and a diamond, in that order.
        se = tmp_path / "se.rle"
        se.write_text("0 -1 1\n1 0 0\n")
        elements = ["square:3", str(se), "diamond:5"]
        out = tmp_path / "bench.csv"
        code = main(["bench", "--image", "random:24x24:density=0.6:seed=2",
                     *(arg for spec in elements for arg in ("--se", spec)),
                     *(arg for algo in ("fast-erode", "naive-erode", "fast-dilate",
                                        "naive-dilate") for arg in ("--algo", algo)),
                     "--iterations", "1", "--csv", str(out)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [r["se"] for r in rows] == [spec for spec in elements for _ in range(4)]
        assert all(r["status"] == "ok" for r in rows)
        for spec in elements:
            for op in ("erode", "dilate"):
                assert len({(r["runs_out"], r["pixels_out"]) for r in rows
                            if r["se"] == spec and r["op"] == op}) == 1

    def test_cli_bench_empty_se_file(self, tmp_path):
        se = tmp_path / "se.rle"
        se.write_text("")
        out = tmp_path / "bench.csv"
        code = main(["bench", "--image", "random:8x8:seed=1", "--se", str(se),
                     "--algo", "fast-erode", "--algo", "naive-dilate",
                     "--csv", str(out)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [(r["algorithm"], r["op"], r["status"]) for r in rows] == [
            ("fast", "erode", "error: empty structuring element"),
            ("naive", "dilate", "error: empty structuring element"),
        ]
        assert all(r["mean_ms"] == r["runs_out"] == r["pixels_out"] == "" for r in rows)

    def test_cli_bench_undecodable_image_exit_code(self, tmp_path, capsys):
        x = tmp_path / "x.rle"
        x.write_bytes(b"0 0 0\n\xff\xfe 1 2\n")
        out = tmp_path / "b.csv"
        assert main(["bench", "--image", str(x), "--csv", str(out)]) == 2
        assert "(line 2)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec, code", [
        ("square:4", 1), ("missing.rle", 2), ("bad.rle", 2),
    ], ids=["even-size", "missing", "unparsable"])
    def test_cli_bench_element_error_exits_as_erode(self, tmp_path, monkeypatch, spec, code):
        # An element that cannot be read stops the run before any timing,
        # with the exit code erode gives it, and no CSV is written.
        monkeypatch.chdir(tmp_path)
        Path("x.rle").write_text("0 0 9\n")
        Path("bad.rle").write_text("0 0\n")
        assert main(["erode", "x.rle", spec, "-o", "out.rle"]) == code
        assert main(["bench", "--image", "x.rle", "--se", "square:3", "--se", spec,
                     "--csv", "b.csv"]) == code
        assert not Path("b.csv").exists()

    def test_cli_bench_algorithm_order(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bench", "--image", "random:8x8:seed=1", "--se", "square:3",
                     "--se", "diamond:3", "--algo", "naive-dilate", "--algo", "fast-erode",
                     "--iterations", "1", "--csv", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [(r["se"], r["algorithm"], r["op"]) for r in rows] == [
            ("square:3", "naive", "dilate"), ("square:3", "fast", "erode"),
            ("diamond:3", "naive", "dilate"), ("diamond:3", "fast", "erode"),
        ]

    @pytest.mark.parametrize("args, message", [
        (["--algo", "warp-erode"], "unknown algorithm 'warp-erode'"),
        (["--algo", "fast-erode,naive-erode"], "unknown algorithm 'fast-erode,naive-erode'"),
        (["--algo", " fast-erode"], "unknown algorithm ' fast-erode'"),
        (["--iterations", "0"], "iterations must be >= 1"),
    ], ids=["unknown", "comma-list", "padded", "no-iterations"])
    def test_cli_bench_bad_argument_exit_code(self, tmp_path, capsys, args, message):
        out = tmp_path / "b.csv"
        assert main(["bench", "--image", "random:8x8:seed=1", *args,
                     "--csv", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cli_bench_arguments_checked_before_reading(self, tmp_path, capsys):
        # A bad algorithm is a usage error (1) even when the image is missing (2).
        out = tmp_path / "b.csv"
        assert main(["bench", "--image", str(tmp_path / "missing.rle"),
                     "--algo", "warp-erode", "--csv", str(out)]) == 1
        assert "unknown algorithm" in capsys.readouterr().err
        assert main(["bench", "--image", str(tmp_path / "missing.rle"),
                     "--csv", str(out)]) == 2
        assert not out.exists()


class TestScripts:
    def test_trace_demo(self, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "trace_demo.py"
        spec = importlib.util.spec_from_file_location("trace_demo", path)
        trace_demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trace_demo)
        for argv in (["random:12x6:density=0.6:seed=3"], ["sparse:4000", "diamond:5"]):
            assert trace_demo.main(argv) == 0
            out = capsys.readouterr().out
            for label in ("candidates examined", "jump-on-miss events",
                          "jump-on-hit events"):
                assert label in out
            assert re.search(r"^tables: \d+ kept runs, left \d+ B, right \d+ B, "
                             r"row_ptr \d+ B, \d+ x_cut runs$", out, re.M)
            assert out.splitlines()[0] == f"backend: {morphology.BACKEND}"
