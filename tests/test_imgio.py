"""PBM (P1/P4) and RLE-text codecs."""
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rlemorph.imgio import (
    ImageFileMeta,
    PbmParseError,
    PbmWriteError,
    RleTextParseError,
    read_image,
    read_pbm,
    read_rle_text,
    write_pbm,
    write_rle_text,
)
from rlemorph.generate import blob_image, random_image
from rlemorph.rle import COORD_LIMIT, EMPTY, Point, bounding_rect, from_raster, normalize, translate

from helpers import images, img, random_rle_image


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
        image, _ = read_pbm(b"P1\n2 2\n1 1#c\r0 0\n1 1\n")
        assert image == img((0, 1, 0))

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

    @pytest.mark.parametrize("byte", range(256))
    def test_p1_byte_classes(self, byte):
        # Between the first two pixel digits: whitespace separates them, a
        # digit is the second pixel, '#' comments out "0" up to the LF, and
        # any other byte is an error at its own offset.
        data = b"P1\n2 1\n1" + bytes([byte]) + b"0\n1"
        if byte in (9, 10, 11, 12, 13, 32):
            assert read_pbm(data)[0] == img((0, 0, 0))
        elif byte in (ord("0"), ord("1"), ord("#")):
            assert read_pbm(data)[0] == img((0, 0 if byte == ord("0") else 1, 0))
        else:
            with pytest.raises(PbmParseError, match="unexpected byte") as info:
                read_pbm(data)
            assert info.value.offset == 8

    def test_p1_comment_digits_do_not_count(self):
        image, _ = read_pbm(b"P1\n2 2\n1 #1 1\n0 # 0 1 1\r0 1")
        assert image == img((0, 0, 0), (1, 1, 1))
        with pytest.raises(PbmParseError, match="truncated P1 payload"):
            read_pbm(b"P1\n2 1\n1 #1\n")

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65])
    def test_p1_read_in_place_or_through_comments(self, width):
        # With no '#' the payload is read in place; a comment before the
        # middle digit sends it through the comment-stripping copy.  Both
        # read the same image, and report a bad byte at its own offset: the
        # same one before the comment, one the comment's length later after.
        image, meta = random_image(width, 3, 0.5, seed=width), ImageFileMeta(width, 3)
        plain = write_pbm(image, meta, "P1")
        first = len(f"P1\n{width} 3\n")
        mid = first + 2 * (3 * width // 2)
        comment = b"# 1 0 x\n"
        commented = plain[:mid] + comment + plain[mid:]
        assert read_pbm(plain) == read_pbm(commented) == (image, meta)
        for data, bad in ((plain, first + 1), (commented, first + 1),
                          (plain, mid + 1), (commented, mid + len(comment) + 1)):
            with pytest.raises(PbmParseError, match="unexpected byte b'x'") as info:
                read_pbm(data[:bad] + b"x" + data[bad + 1:])
            assert info.value.offset == bad

    def test_p1_bytes_after_last_digit_ignored(self):
        image, _ = read_pbm(b"P1\n2 1\n1 0 x")
        assert image == img((0, 0, 0))

    # Header fields are separated by any run of whitespace and comments; a
    # comment runs to the next CR or LF.  After the P4 height come comments,
    # each through its line break, then one whitespace byte.
    @pytest.mark.parametrize("data, message, offset", [
        (b"P1 #w 9\n 3 #h\n\n x", "expected height", 16),
        (b"P1#only\n", "expected width", 8),
        (b"P1 -3 1\n1", "expected width", 3),
        (b"P1 0 3\n", "bad dimensions 0x3", 6),
        (b"P4 1 1", "truncated P4 header", 6),
        (b"P4\n8 1X\xff", "expected whitespace", 6),
        (b"P4\n8 1#c\n\xff", "expected whitespace", 9),
    ])
    def test_header_errors(self, data, message, offset):
        with pytest.raises(PbmParseError, match=message) as info:
            read_pbm(data)
        assert info.value.offset == offset

    @pytest.mark.parametrize("data", [b"P4\t2\x0b#c\n1\n\x80", b"P1\n#a\n#b\n2#c\n1 1 0",
                                      b"P4\n2 1#c\n\n\x80"])
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

    @pytest.mark.parametrize("variant", ["P1", "P4"])
    @pytest.mark.parametrize("width, height", [(0, 0), (0, 3), (3, 0), (-1, 2)])
    def test_canvas_under_one_pixel_rejected(self, variant, width, height):
        for image in (EMPTY, img((0, 0, 0))):
            with pytest.raises(PbmWriteError, match=f"bad dimensions {width}x{height}"):
                write_pbm(image, ImageFileMeta(width, height), variant)

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


# Widths on both sides of byte and 64-bit word boundaries.
_WIDTHS = [1, 7, 8, 9, 63, 64, 65, 127, 128, 129]


@st.composite
def bitmaps(draw):
    """A grid whose rows flip between background and foreground at drawn
    columns, mostly next to byte boundaries; some rows are full."""
    width = draw(st.sampled_from(_WIDTHS))
    near = sorted({v for b in range(0, width + 8, 8) for v in (b - 1, b, b + 1) if 0 <= v <= width})
    flips = st.lists(st.one_of(st.sampled_from(near), st.integers(0, width)), max_size=8)
    rows = draw(st.lists(st.one_of(st.just([0]), flips), min_size=1, max_size=4))
    grid = np.zeros((len(rows), width), dtype=bool)
    for row, cols in zip(grid, rows):
        for x in cols:
            row[x:] ^= True
    return grid


class TestPbmBits:
    """Both codecs against a reference built pixel by pixel."""

    @given(bitmaps())
    def test_round_trip_at_byte_and_word_edges(self, grid):
        height, width = grid.shape
        image = normalize([(x, x, y) for y, x in np.argwhere(grid).tolist()])
        meta = ImageFileMeta(width, height)
        header = f"P4\n{width} {height}\n".encode()
        p4 = header + np.packbits(grid, axis=1).tobytes()
        body = "\n".join(" ".join("1" if v else "0" for v in row) for row in grid)
        p1 = f"P1\n{width} {height}\n{body}\n".encode()
        assert write_pbm(image, meta, "P4") == p4
        assert write_pbm(image, meta, "P1") == p1
        assert read_pbm(p4) == (image, meta)
        assert read_pbm(p1) == (image, meta)
        # Padding bits set to 1 read as 0.
        padded = np.packbits(grid, axis=1)
        padded[:, -1] |= 0xFF >> (width - 8 * (padded.shape[1] - 1))
        assert read_pbm(header + padded.tobytes()) == (image, meta)

    @given(images)
    def test_p4_payload_is_packed_pixel_grid(self, a):
        assume(not a.is_empty)
        rect = bounding_rect(a)
        a = translate(a, Point(-rect.l, -rect.t))
        grid = np.zeros((rect.height, rect.width), dtype=bool)
        for p in a.pixels():
            grid[p.y, p.x] = True
        data = write_pbm(a, ImageFileMeta(rect.width, rect.height), "P4")
        assert data.endswith(np.packbits(grid, axis=1).tobytes())


def _peak_bytes(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_p4_codec_memory_follows_payload():
    # The decoder works a block of rows at a time and the encoder paints
    # the payload itself, so neither holds a grid of one byte per pixel.
    image = blob_image(4096, 4096, seed=1)
    meta = ImageFileMeta(4096, 4096)
    data = write_pbm(image, meta, "P4")
    payload = 4096 * 4096 // 8
    assert _peak_bytes(lambda: read_pbm(data)) < 2.5 * payload
    assert _peak_bytes(lambda: write_pbm(image, meta, "P4")) < 2.5 * payload


@pytest.mark.parametrize("data, message, offset", [
    (b"P1\n2000000 2000000\n1\n", "truncated P1 payload", 21),
    (b"P1\n100000000000 100000000000\n1\n", "truncated P1 payload", 31),
    (b"P1\n2000000 2000000\n1 x\n", "unexpected byte b'x'", 21),
], ids=["466-GiB-rows", "past-numpy-size", "bad-byte"])
def test_p1_header_past_payload_allocates_nothing(data, message, offset):
    # Every digit takes a payload byte, so a header that needs more digits
    # than the payload has bytes fails before the bit rows are allocated:
    # at the first bad byte, else at the end.
    def read():
        with pytest.raises(PbmParseError, match=message) as info:
            read_pbm(data)
        assert info.value.offset == offset
    assert _peak_bytes(read) < 1 << 20


def test_p1_decode_memory_follows_payload():
    # P1 digits are packed to P4's bit rows a block of rows at a time, with
    # no index per byte and no pixel grid.  The random image's short runs
    # alone take about 3 B per payload byte once decoded.
    for image, n in [(blob_image(1024, 1024, seed=1), 1024),
                     (random_image(256, 256, 0.6, seed=0), 256)]:
        data = write_pbm(image, ImageFileMeta(n, n), "P1")
        assert _peak_bytes(lambda: read_pbm(data)) < 8 * len(data), n


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

    @pytest.mark.parametrize("line", [
        "0 0 9223372036854775807", "0 0 9223372036854775808", "0 -9223372036854775809 0",
        f"{2**61 + 1} 0 0",
    ], ids=["int64-max", "past-int64", "past-int64-min", "row"])
    def test_coordinate_beyond_bound(self, line):
        with pytest.raises(RleTextParseError, match=r"beyond \+-2\*\*61 .*\(line 1\)"):
            read_rle_text(line + "\n")

    def test_wrong_arity(self):
        with pytest.raises(RleTextParseError):
            read_rle_text("0 1\n")

    @pytest.mark.parametrize("data, line", [
        (b"\xff0 0 1\n", 1),
        (b"0 0 1\n0 0 \xff\n", 2),
        (b"0 0 1\r0 0 \xff\n", 2),
        (b"0 0 1\x0b0 0 \xff\n", 2),
        (b"0 0 1\r\n0 0 \xff\n", 2),
        (b"0 0 1\r\n\r\n\n\xff", 4),
        (b"0 0 1\r\xff", 2),
        (b"0 0 1\xe2\x80\xa80 0 \xff", 2),
    ], ids=["first-byte", "lf", "cr", "vt", "crlf", "blank-lines", "after-cr", "u2028"])
    def test_undecodable_byte_line(self, data, line):
        # The line of a bad byte is counted as read_rle_text counts lines,
        # by str.splitlines: CR LF is one break, CR and VT are breaks too.
        with pytest.raises(RleTextParseError, match=rf"\(line {line}\)") as info:
            read_image(data)
        assert info.value.line == line

    def test_round_trips(self):
        rng = random.Random(41)
        for _ in range(60):
            image = random_rle_image(rng, 24, 24)
            assert read_rle_text(write_rle_text(image)) == image
        # At size: 63,102 runs, as written (sorted, so RleImage takes them
        # as they are) and with the lines reversed (so normalize sorts them).
        image = random_image(512, 512, 0.6, seed=0)
        text = write_rle_text(image)
        assert read_rle_text(text) == image
        assert read_rle_text("".join(reversed(text.splitlines(keepends=True)))) == image


def read_rle_text_by_line(text):
    """Reference for read_rle_text, written apart from it: one Python step
    per line into a list of (lx, rx, y) tuples, then always normalize."""
    runs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise RleTextParseError(f"expected 'y lx rx', got {line!r}", lineno)
        try:
            y, lx, rx = (int(p) for p in parts)
        except ValueError:
            raise RleTextParseError(f"non-integer token in {line!r}", lineno) from None
        if lx > rx:
            raise RleTextParseError(f"lx > rx in {line!r}", lineno)
        if lx < -COORD_LIMIT or rx > COORD_LIMIT or abs(y) > COORD_LIMIT:
            raise RleTextParseError(f"coordinate beyond +-2**61 in {line!r}", lineno)
        runs.append((lx, rx, y))
    return normalize(runs)


# Pieces of fuzzed RLE text.  Every line break str.splitlines knows, and
# whitespace that separates tokens but does not end a line.
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029"]
_SPACES = [" ", "  ", "\t", " \t ", "\xa0", "\u3000", "\x1f"]
_BAD_TOKENS = ["a", "1.0", "0x1", "_1", "1__0", "1_", "\xb2", "--1", "+-1", "1#",
               "#1", "\x00", "\ud800", "9" * 5000]
_BIG = [2**61, -(2**61), 2**61 + 1, -(2**61) - 1, 2**63 - 1, 2**63, -(2**63),
        -(2**63) - 1, 10**30]


def _spell(rng, v):
    """A token int() reads as v: signs, '_' and non-ASCII digits."""
    digits = str(abs(v))
    if len(digits) > 1 and rng.random() < 0.1:
        i = rng.randint(1, len(digits) - 1)
        digits = digits[:i] + "_" + digits[i:]
    if rng.random() < 0.1:
        zero = rng.choice([0x660, 0x966, 0xFF10])  # Arabic-Indic, Devanagari, fullwidth
        digits = "".join(chr(zero + int(d)) if d != "_" else d for d in digits)
    if rng.random() < 0.05:
        digits = "00" + digits
    sign = "-" if v < 0 else rng.choice(["", "", "", "+"])
    return sign + digits


def _fuzz_line(rng, bad):
    kind = rng.random()
    if kind < 0.1:
        return rng.choice(["", *_SPACES])
    if kind < 0.2:
        words = [rng.choice(["0", "1 2 3", "x", "#", "a b"]) for _ in range(rng.randint(0, 3))]
        return rng.choice(["", " ", "\t"]) + "#" + rng.choice(_SPACES).join(words)
    value = lambda: rng.choice(_BIG) if rng.random() < 0.03 else rng.randint(-6, 12)
    y, lx = value(), value()
    rx = lx + rng.randint(0, 6) if rng.random() < 0.95 else value()
    tokens = [_spell(rng, v) for v in (y, lx, rx)]
    if bad:
        fault = rng.random()
        if fault < 0.3:
            tokens[rng.randrange(3)] = rng.choice(_BAD_TOKENS)
        elif fault < 0.5:
            i = rng.randrange(3)
            del tokens[i:i + rng.randint(1, 2)]
        elif fault < 0.7:
            tokens.insert(rng.randrange(4), _spell(rng, value()))
        elif fault < 0.85:
            tokens[1], tokens[2] = _spell(rng, lx + 1), _spell(rng, lx)
        else:
            tokens[rng.randrange(3)] = _spell(rng, rng.choice(_BIG))
    pad = lambda: rng.choice(["", "", *_SPACES])
    return pad() + "".join(t + rng.choice(_SPACES) for t in tokens[:-1]) + tokens[-1] + pad()


def _fuzz_text(rng):
    faulty = rng.random() < 0.5
    lines = [_fuzz_line(rng, faulty and rng.random() < 0.2) for _ in range(rng.randint(0, 10))]
    text = "".join(line + rng.choice(_BREAKS) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\n")


# Lines of wrong arity whose tokens add up to whole runs.
_ARITY = ["0 1\n2\n", "0 1 2 3 4 5\n", "0\n1 2\n", "0 1 2 3\n4 5\n", "# c\n0 1\n\n2 3 4 5\n6\n"]


def test_read_rle_text_matches_line_by_line_reading():
    rng = random.Random(42)
    outcomes = {"image": 0, "error": 0}
    for text in _ARITY + [_fuzz_text(rng) for _ in range(3000)]:
        try:
            expected = read_rle_text_by_line(text)
        except RleTextParseError as exc:
            with pytest.raises(RleTextParseError) as info:
                read_rle_text(text)
            assert (str(info.value), info.value.line) == (str(exc), exc.line), text
            outcomes["error"] += 1
        else:
            assert read_rle_text(text) == expected, text
            outcomes["image"] += 1
    assert min(outcomes.values()) > 500, outcomes
