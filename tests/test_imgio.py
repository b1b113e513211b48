"""PBM (P1/P4) and RLE-text codecs."""
import random

import numpy as np
import pytest

from rlemorph.imgio import (
    ImageFileMeta,
    PbmParseError,
    PbmWriteError,
    RleTextParseError,
    read_pbm,
    read_rle_text,
    write_pbm,
    write_rle_text,
)
from rlemorph.rle import EMPTY, from_raster

from helpers import img, random_rle_image


class TestReadPbm:
    def test_p1_row(self):
        image, meta = read_pbm(b"P1\n3 1\n1 1 1\n")
        assert image == img((0, 2, 0))
        assert meta.width == 3 and meta.height == 1

    def test_p1_no_spaces(self):
        image, _ = read_pbm(b"P1\n4 1\n1011\n")
        assert image == img((0, 0, 0), (2, 3, 0))

    def test_p1_comments(self):
        image, _ = read_pbm(b"P1\n# hello\n2 2\n1 0\n# more\n0 1\n")
        assert image == img((0, 0, 0), (1, 1, 1))

    def test_p1_all_zeros(self):
        image, _ = read_pbm(b"P1\n3 2\n0 0 0 0 0 0\n")
        assert image == EMPTY

    def test_p4_msb_first(self):
        image, _ = read_pbm(b"P4\n8 1\n" + bytes([0b10100000]))
        assert image == img((0, 0, 0), (2, 2, 0))

    def test_p4_row_padding(self):
        # 9 wide needs 2 bytes per row; pad bits ignored
        data = b"P4\n9 2\n" + bytes([0xFF, 0x80, 0x00, 0x80])
        image, _ = read_pbm(data)
        assert image == img((0, 8, 0), (8, 8, 1))

    def test_bad_magic(self):
        with pytest.raises(PbmParseError, match="magic"):
            read_pbm(b"P5\n2 2\n")

    def test_truncated_p4(self):
        with pytest.raises(PbmParseError, match="truncated"):
            read_pbm(b"P4\n16 4\n\x00\x00")

    def test_truncated_p1(self):
        with pytest.raises(PbmParseError, match="truncated"):
            read_pbm(b"P1\n3 3\n1 1\n")

    def test_missing_dimension(self):
        with pytest.raises(PbmParseError, match="height"):
            read_pbm(b"P1\n3\n")

    def test_error_carries_offset(self):
        try:
            read_pbm(b"P1\n3 1\n1 x 1\n")
        except PbmParseError as exc:
            assert exc.offset == 9
        else:
            pytest.fail("expected parse error")

    # Header fields are separated by any run of whitespace and comments; a
    # comment runs to the end of its line.
    @pytest.mark.parametrize("data, message, offset", [
        (b"P1 #w 9\n 3 #h\n\n x", "expected height", 16),
        (b"P1#only\n", "expected width", 8),
        (b"P1 -3 1\n1", "expected width", 3),
        (b"P1 0 3\n", "bad dimensions 0x3", 6),
        (b"P4 1 1", "truncated P4 header", 6),
    ])
    def test_header_errors(self, data, message, offset):
        with pytest.raises(PbmParseError, match=message) as info:
            read_pbm(data)
        assert info.value.offset == offset

    @pytest.mark.parametrize("data", [b"P4\t2\x0b#c\n1\n\x80", b"P1\n#a\n#b\n2#c\n1 1 0"])
    def test_header_gaps(self, data):
        image, meta = read_pbm(data)
        assert (meta.width, meta.height) == (2, 1)
        assert image == img((0, 0, 0))


class TestWritePbm:
    def test_p1_row(self):
        data = write_pbm(img((0, 2, 0)), ImageFileMeta(3, 1), "P1")
        assert data == b"P1\n3 1\n1 1 1\n"

    def test_p1_empty(self):
        data = write_pbm(EMPTY, ImageFileMeta(2, 2), "P1")
        image, _ = read_pbm(data)
        assert image == EMPTY

    @pytest.mark.parametrize("width, height", [(1, 1), (1, 7), (7, 1), (5, 9), (64, 33)])
    def test_p1_body_matches_per_pixel_join(self, width, height):
        rng = np.random.default_rng(width * 100 + height)
        meta = ImageFileMeta(width, height)
        for density in (0.0, 0.5, 1.0):
            grid = rng.random((height, width)) < density
            data = write_pbm(from_raster(grid), meta, "P1")
            body = "\n".join(" ".join("1" if v else "0" for v in row) for row in grid)
            assert data == f"P1\n{width} {height}\n{body}\n".encode()

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            write_pbm(EMPTY, ImageFileMeta(1, 1), "P2")

    def test_p4_packing(self):
        data = write_pbm(img((0, 0, 0), (2, 2, 0)), ImageFileMeta(8, 1), "P4")
        assert data == b"P4\n8 1\n" + bytes([0b10100000])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(PbmWriteError, match="outside"):
            write_pbm(img((0, 5, 0)), ImageFileMeta(3, 1), "P1")
        with pytest.raises(PbmWriteError):
            write_pbm(img((-1, 0, 0)), ImageFileMeta(3, 1), "P1")

    def test_round_trips(self):
        rng = random.Random(40)
        for _ in range(60):
            image = random_rle_image(rng, 24, 24, offset_range=0)
            from rlemorph.rle import bounding_rect

            rect = bounding_rect(image)
            w = (rect.r + 1) if rect else 1
            h = (rect.b + 1) if rect else 1
            meta = ImageFileMeta(w, h)
            p1 = read_pbm(write_pbm(image, meta, "P1"))[0]
            p4 = read_pbm(write_pbm(image, meta, "P4"))[0]
            assert p1 == image
            assert p4 == image
            assert p1 == p4


class TestRleText:
    def test_merge_on_load(self):
        assert read_rle_text("0 1 3\n0 4 6\n") == img((1, 6, 0))

    def test_comment_and_negative(self):
        assert read_rle_text("# comment\n-1 0 0\n") == img((0, 0, -1))

    def test_empty(self):
        assert read_rle_text("") == EMPTY
        assert write_rle_text(EMPTY) == ""

    def test_write_examples(self):
        assert write_rle_text(img((1, 6, 0))) == "0 1 6\n"
        assert write_rle_text(img((0, 2, 0), (1, 1, 1))) == "0 0 2\n1 1 1\n"

    def test_bad_token(self):
        with pytest.raises(RleTextParseError, match="line 2"):
            read_rle_text("0 0 0\n0 a 1\n")

    def test_lx_gt_rx(self):
        with pytest.raises(RleTextParseError, match="lx > rx"):
            read_rle_text("0 5 1\n")

    def test_wrong_arity(self):
        with pytest.raises(RleTextParseError):
            read_rle_text("0 1\n")

    def test_round_trips(self):
        rng = random.Random(41)
        for _ in range(60):
            image = random_rle_image(rng, 24, 24)
            assert read_rle_text(write_rle_text(image)) == image
