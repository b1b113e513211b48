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
from rlemorph.bench import (
    BenchConfig,
    BenchConfigError,
    CSV_FIELDS,
    load_image_source,
    rows_to_csv,
    run_bench,
)
from rlemorph.cli import main
from rlemorph.generate import blob_image, diamond_se, random_image, square_se
from rlemorph.imgio import read_rle_text, write_rle_text
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

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["erode", str(tmp_path / "no.rle"), str(tmp_path / "no.rle"),
                     "-o", str(tmp_path / "o.rle")]) == 2

    def test_usage_error_exit_code(self):
        assert main(["erode"]) == 1


class TestCliGen:
    def test_gen_se(self, tmp_path):
        out = tmp_path / "se.rle"
        assert main(["gen-se", "square", "3", "-o", str(out)]) == 0
        assert read_rle_text(out.read_text()) == square_se(3)
        assert main(["gen-se", "diamond", "3", "-o", str(out)]) == 0
        assert read_rle_text(out.read_text()) == diamond_se(3)

    def test_gen_se_even_size(self, tmp_path):
        assert main(["gen-se", "square", "4", "-o", str(tmp_path / "se.rle")]) == 1

    def test_gen_image_deterministic(self, tmp_path):
        a = tmp_path / "a.rle"
        b = tmp_path / "b.rle"
        args = ["gen-image", "random", "--width", "20", "--height", "10",
                "--density", "0.3", "--seed", "5"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_image_blobs_options(self, tmp_path):
        out = tmp_path / "b.rle"
        assert main(["gen-image", "blobs", "--width", "40", "--height", "30",
                     "--blobs", "5", "--min-size", "2", "--max-size", "9",
                     "--seed", "3", "-o", str(out)]) == 0
        assert read_rle_text(out.read_text()) == blob_image(40, 30, 5, 2, 9, 3)

    def test_gen_image_bad_density(self, tmp_path):
        assert main(["gen-image", "random", "--width", "4", "--height", "4",
                     "--density", "1.5", "-o", str(tmp_path / "a.rle")]) == 1


class TestCliConvert:
    def test_pbm_rle_round_trip(self, tmp_path):
        pbm = tmp_path / "a.pbm"
        rle = tmp_path / "a.rle"
        back = tmp_path / "b.pbm"
        assert main(["gen-image", "random", "--width", "12", "--height", "7",
                     "--density", "0.5", "--seed", "2", "-o", str(pbm),
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

    def test_empty_image_converts(self, tmp_path):
        rle = tmp_path / "a.rle"
        rle.write_text("")
        assert main(["convert", str(rle), "-o", str(tmp_path / "b.rle")]) == 0
        assert (tmp_path / "b.rle").read_text() == ""


class TestBench:
    def test_config_validation(self):
        with pytest.raises(BenchConfigError):
            BenchConfig(image_source="x", se_sizes=())
        with pytest.raises(BenchConfigError):
            BenchConfig(image_source="x", iterations=0)
        with pytest.raises(BenchConfigError):
            BenchConfig(image_source="x", algorithms=("warp-erode",))
        with pytest.raises(BenchConfigError, match="se_shape"):
            BenchConfig(image_source="x", se_shape="disc")
        with pytest.raises(BenchConfigError, match="se_path"):
            BenchConfig(image_source="x", se_shape="file")

    def test_single_row_solid_case(self, tmp_path):
        src = tmp_path / "x.rle"
        src.write_text(write_rle_text(img(*[(0, 4, y) for y in range(5)])))
        config = BenchConfig(image_source=str(src), se_shape="square",
                             se_sizes=(3,), algorithms=("fast-erode",))
        rows = run_bench(config)
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

        config = BenchConfig(image_source=str(src), se_sizes=(3,),
                             algorithms=("fast-erode",), iterations=3)
        run_bench(config, clock=clock)
        # warm-up is untimed: 2 clock reads per timed call, 3 timed calls
        assert len(calls) == 6

    def test_all_algorithms_agree(self, tmp_path):
        src = tmp_path / "x.rle"
        rng = random.Random(51)
        src.write_text(write_rle_text(random_rle_image(rng, 24, 24,
                                                       offset_range=0)))
        config = BenchConfig(
            image_source=str(src),
            se_sizes=(3, 5),
            algorithms=("fast-erode", "naive-erode", "runs-erode",
                        "fast-dilate", "naive-dilate"),
        )
        rows = run_bench(config)
        assert all(r["status"] == "ok" for r in rows)
        for size in (3, 5):
            ero = {(r["runs_out"], r["pixels_out"]) for r in rows
                   if r["op"] == "erode" and r["se_size"] == size}
            dil = {(r["runs_out"], r["pixels_out"]) for r in rows
                   if r["op"] == "dilate" and r["se_size"] == size}
            assert len(ero) == 1 and len(dil) == 1

    def test_failing_case_recorded(self, tmp_path):
        src = tmp_path / "x.rle"
        src.write_text("0 0 9\n")
        config = BenchConfig(image_source=str(src), se_sizes=(4,),
                             algorithms=("fast-erode",))
        rows = run_bench(config)
        assert len(rows) == 1
        assert rows[0]["status"].startswith("error:")

    def test_csv_schema(self, tmp_path):
        src = tmp_path / "x.rle"
        src.write_text("0 0 9\n")
        config = BenchConfig(image_source=str(src), se_sizes=(3,),
                             algorithms=("fast-erode", "naive-erode"))
        text = rows_to_csv(run_bench(config))
        reader = csv.DictReader(io.StringIO(text))
        assert reader.fieldnames == CSV_FIELDS
        assert len(list(reader)) == 2

    def test_synthetic_source(self):
        a = load_image_source("random:16x8:density=0.5:seed=3")
        b = load_image_source("random:16x8:density=0.5:seed=3")
        assert a == b and not a.is_empty
        assert load_image_source("blobs:32x24:seed=4") == blob_image(32, 24, seed=4)

    def test_diamond_sweep(self):
        config = BenchConfig(image_source="blobs:32x24:seed=4", se_shape="diamond",
                             se_sizes=(3, 5), algorithms=("fast-erode", "naive-erode"),
                             iterations=1)
        rows = run_bench(config)
        assert [r["se_size"] for r in rows] == [3, 3, 5, 5]
        assert all(r["se_shape"] == "diamond" and r["status"] == "ok" for r in rows)
        for size in (3, 5):
            assert len({r["pixels_out"] for r in rows if r["se_size"] == size}) == 1

    def test_cli_bench_bad_sizes(self, tmp_path, capsys):
        code = main(["bench", "--image", "random:8x8:seed=1", "--se-sizes", "3,x",
                     "--csv", str(tmp_path / "b.csv")])
        assert code == 1
        assert "bad --se-sizes" in capsys.readouterr().err

    def test_cli_bench(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--image", "random:16x16:density=0.4:seed=1",
                     "--se-sizes", "3,5", "--algos", "fast-erode,fast-dilate",
                     "--iterations", "2", "--csv", str(out)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)

    def test_cli_bench_prints_one_table_line_per_row(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--image", "random:16x16:density=0.4:seed=1",
                     "--se-sizes", "3,5,7", "--algos", "fast-erode,naive-erode",
                     "--iterations", "1", "--csv", str(out)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split() == ["algorithm", "op", "size", "mean_ms", "runs",
                                  "pixels", "status"]
        assert len(lines) == len(rows) == 6
        for line, row in zip(lines, rows):
            fields = line.split()
            assert fields[:3] == [row["algorithm"], row["op"], row["se_size"]]
            assert fields[4:] == [row["runs_out"], row["pixels_out"], row["status"]]

    def test_cli_bench_se_file(self, tmp_path):
        se = tmp_path / "se.rle"
        se.write_text("0 -1 1\n1 0 0\n")
        out = tmp_path / "bench.csv"
        code = main(["bench", "--image", "random:24x24:density=0.6:seed=2",
                     "--se-shape", "file", "--se-path", str(se), "--se-sizes", "3",
                     "--algos", "fast-erode,naive-erode,fast-dilate,naive-dilate",
                     "--iterations", "1", "--csv", str(out)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 4 and all(r["status"] == "ok" for r in rows)
        for op in ("erode", "dilate"):
            assert len({(r["runs_out"], r["pixels_out"]) for r in rows
                        if r["op"] == op}) == 1

    def test_cli_bench_empty_se_file(self, tmp_path):
        se = tmp_path / "se.rle"
        se.write_text("")
        out = tmp_path / "bench.csv"
        code = main(["bench", "--image", "random:8x8:seed=1", "--se-shape", "file",
                     "--se-path", str(se), "--algos", "fast-erode,naive-dilate",
                     "--csv", str(out)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [(r["algorithm"], r["op"], r["status"]) for r in rows] == [
            ("fast", "erode", "error: empty structuring element"),
            ("naive", "dilate", "error: empty structuring element"),
        ]
        assert all(r["mean_ms"] == r["runs_out"] == r["pixels_out"] == "" for r in rows)

    def test_cli_bench_se_file_takes_one_size(self, tmp_path, capsys):
        se = tmp_path / "se.rle"
        se.write_text("0 -1 1\n1 0 0\n")
        out = tmp_path / "bench.csv"
        code = main(["bench", "--image", "random:24x24:density=0.6:seed=2",
                     "--se-shape", "file", "--se-path", str(se), "--se-sizes", "3,5,7",
                     "--csv", str(out)])
        assert code == 1
        assert "single se_sizes entry" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_bench_undecodable_image_exit_code(self, tmp_path, capsys):
        x = tmp_path / "x.rle"
        x.write_bytes(b"0 0 0\n\xff\xfe 1 2\n")
        out = tmp_path / "b.csv"
        assert main(["bench", "--image", str(x), "--csv", str(out)]) == 2
        assert "(line 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_bench_empty_sizes(self, tmp_path):
        code = main(["bench", "--image", "random:8x8:seed=1", "--se-sizes", "",
                     "--csv", str(tmp_path / "b.csv")])
        assert code == 1
        assert not (tmp_path / "b.csv").exists()


class TestScripts:
    def test_trace_demo(self, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "trace_demo.py"
        spec = importlib.util.spec_from_file_location("trace_demo", path)
        trace_demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trace_demo)
        assert trace_demo.main(["--width", "12", "--height", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        for label in ("candidates examined", "jump-on-miss events", "jump-on-hit events"):
            assert label in out
        assert re.search(r"^tables: \d+ kept runs, left \d+ B, right \d+ B, "
                         r"row_ptr \d+ B, \d+ x_cut runs$", out, re.M)
        assert out.splitlines()[0] == f"backend: {morphology.BACKEND}"
